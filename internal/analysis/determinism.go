package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the repo's replay contract (DESIGN.md §5, §12):
// the deterministic packages — urb, host, sim, replay, wire, xrand — are pure
// functions of their inputs, so equivalence tests and the record/replay
// digest can compare runs bit-for-bit. Three rules:
//
//  1. No wall clocks or timers (time.Now, time.Since, time.NewTimer, …)
//     in a deterministic package, and none in transport/admit either
//     unless the function is annotated `//urbvet:wallclock <why>` —
//     those two packages legitimately pace real I/O, but each clock
//     site must say so (replay.Drive is the canonical exemption).
//  2. No math/rand in a deterministic package: randomness flows through
//     internal/xrand's seeded, splittable streams.
//  3. No map iteration whose order can leak into an encoder, digest or
//     Step in a deterministic package: a range over a map may not call
//     an order-sensitive sink or append to an accumulator declared
//     outside the loop, unless the accumulator is visibly sorted
//     afterwards or the range carries `//urbvet:unordered <why>`.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "deterministic packages may not read wall clocks, use math/rand, or leak map iteration order",
	Run:  runDeterminism,
}

// strictPkgs are the packages whose outputs must be bit-reproducible.
var strictPkgs = map[string]bool{
	"urb": true, "host": true, "sim": true, "replay": true, "wire": true, "xrand": true,
}

// wallclockPkgs additionally ban unannotated clock use: they touch real
// I/O, so clocks are legal, but only behind an explicit justification.
var wallclockPkgs = map[string]bool{"transport": true, "admit": true}

// clockFuncs are the time functions that read a clock or arm a timer.
// Pure constructors and arithmetic (time.Unix, Duration ops) are fine.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "NewTimer": true, "NewTicker": true,
	"Tick": true, "Sleep": true,
}

func runDeterminism(pass *Pass) error {
	base := pass.PkgBase()
	strict := strictPkgs[base]
	if !strict && !wallclockPkgs[base] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		checkClocksAndRand(pass, f, strict)
		if strict {
			checkMapOrder(pass, f)
		}
	}
	return nil
}

func checkClocksAndRand(pass *Pass, f *ast.File, strict bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pn, ok := pkgNameOf(pass.TypesInfo, sel.X)
		if !ok {
			return true
		}
		switch pn.Imported().Path() {
		case "time":
			if !clockFuncs[sel.Sel.Name] {
				return true
			}
			if fn := enclosingFunc(f, sel.Pos()); fn != nil {
				if d, ok := FuncDirective(fn, "urbvet:wallclock"); ok && d.Arg != "" {
					return true
				}
			}
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock in deterministic package %s: thread a logical clock through the config, or annotate the function //urbvet:wallclock <why>",
				sel.Sel.Name, pass.PkgBase())
		case "math/rand", "math/rand/v2":
			if strict {
				pass.Reportf(sel.Pos(),
					"math/rand in deterministic package %s: use internal/xrand's seeded streams so runs replay bit-for-bit",
					pass.PkgBase())
			}
		}
		return true
	})
}

// checkMapOrder flags range-over-map statements whose iteration order
// can escape: calling an order-sensitive sink in the body, or growing
// an accumulator declared outside the loop. Accumulate-then-sort is the
// package idiom and is recognised (any later call in the same function
// whose name contains "sort" and takes the accumulator); everything
// else needs `//urbvet:unordered <why>`.
func checkMapOrder(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.Types[rng.X].Type
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if _, ok := pass.StmtDirective(f, rng, "urbvet:unordered"); ok {
			return true
		}
		fn := enclosingFunc(f, rng.Pos())
		if fn == nil {
			return true
		}
		if _, ok := FuncDirective(fn, "urbvet:unordered"); ok {
			return true
		}
		checkRangeBody(pass, fn, rng)
		return true
	})
}

// orderSinks are callee names whose argument order is observable:
// feeding them from inside a map range leaks iteration order.
var orderSinks = map[string]bool{
	"Encode": true, "EncodeBatch": true, "AppendEncoded": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Sum": true, "Sum32": true, "Sum64": true, "Step": true,
}

func checkRangeBody(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			name := calleeName(n)
			if orderSinks[name] {
				pass.Reportf(n.Pos(),
					"%s called inside a map range: iteration order leaks into the output; iterate a sorted key slice instead (or annotate //urbvet:unordered <why>)",
					name)
			}
		case *ast.AssignStmt:
			checkAccumulate(pass, fn, rng, n)
		}
		return true
	})
}

// checkAccumulate flags `acc = append(acc, …)` where acc outlives the
// range and is never sorted afterwards.
func checkAccumulate(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || calleeName(call) != "append" || i >= len(as.Lhs) {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil || obj.Pos() == 0 {
			continue
		}
		// Accumulators born inside the range body cannot outlive it.
		if rng.Pos() <= obj.Pos() && obj.Pos() <= rng.End() {
			continue
		}
		if sortedLater(pass, fn, rng, obj) {
			continue
		}
		pass.Reportf(as.Pos(),
			"appending to %s inside a map range builds an order-dependent slice: sort it before use, or annotate the range //urbvet:unordered <why>",
			id.Name)
	}
}

// sortedLater reports whether obj is passed, after the range statement,
// to a call whose callee name mentions sort (sort.Strings, sort.Slice,
// slices.Sort, a local sortIDs, …).
func sortedLater(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() < rng.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !strings.Contains(strings.ToLower(qualifiedCalleeName(call)), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// qualifiedCalleeName renders a callee with its qualifier: sort.Strings,
// w.sortedIDs, sortIDs. Only the sort-suppression heuristic needs the
// qualifier (the "sort" in sort.Strings lives in the package name).
func qualifiedCalleeName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			return id.Name + "." + sel.Sel.Name
		}
		return sel.Sel.Name
	}
	return calleeName(call)
}

// calleeName returns the bare name of a call's callee: Encode for both
// Encode(x) and m.Encode(x).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
