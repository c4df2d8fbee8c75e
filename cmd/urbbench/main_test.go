package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		only string
		want string // picked ids in order, or the id the error must name
		err  bool
	}{
		{only: "", want: "T1,T2,T3,T4,T5,T6,F1,F2,F3,F4,F5,F6,F7,F8"},
		{only: "t1", want: "T1"},
		{only: " f7 , T1 ", want: "T1,F7"},
		{only: "F7,ZZ", want: "ZZ", err: true},
		{only: "T1,t1", want: "T1", err: true},
		{only: "T1,", want: `""`, err: true},
	} {
		exps, err := selectExperiments(tc.only)
		if tc.err {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("-only %q: error %v, want one naming %s", tc.only, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("-only %q: %v", tc.only, err)
			continue
		}
		ids := make([]string, len(exps))
		for i, e := range exps {
			ids[i] = e.ID
		}
		if got := strings.Join(ids, ","); got != tc.want {
			t.Errorf("-only %q picked %s, want %s", tc.only, got, tc.want)
		}
	}
}
