//go:build linux

package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv carries "<processor>/<allowed>" — the processor a pinned
// process runs on and how many it was allowed before — to itself after the
// re-execution, and to the children it spawns. Set by hand to "-1/<n>" it
// keeps the process unpinned on its n processors, which is how the
// README's two-processor figures were taken.
const pinnedEnv = "ANONURB_BENCH_CPU"

// pinToOneCPU restricts the process to one processor and re-executes it,
// so that the Go runtime starts under the restriction and sizes itself to
// it (GOMAXPROCS = 1). It returns only when the process is already pinned
// or cannot be, with the reason.
//
// Why: the benchmark's load is deliberately unsaturated, and the kernel
// keeps the runtime's few threads either all on one processor or spread
// over two, whichever they happened to start on, for the whole run. The
// two placements differ by a tenth in CPU per delivery and in p95 latency
// (spread threads spin and wake each other across processors: more CPU,
// less waiting), which is more than the regression bounds. One processor
// makes every run the first kind, and makes CPU per delivery the inverse
// of sustainable deliveries per second on one core exactly.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	// sched_setaffinity acts on the calling thread and exec keeps that
	// thread's affinity, so both must happen on one thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // 1024 processors
	size := unsafe.Sizeof(mask)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	// The last allowed processor: interrupts and whatever else the machine
	// runs tend to sit on the first.
	cpu, allowed := -1, 0
	for i, word := range mask {
		if word != 0 {
			cpu = i*64 + 63 - bits.LeadingZeros64(word)
			allowed += bits.OnesCount64(word)
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	os.Setenv(pinnedEnv, fmt.Sprintf("%d/%d", cpu, allowed))
	// The affinity of the calling thread survives exec and is inherited by
	// every thread the new image creates.
	return fmt.Errorf("exec %s: %w", exe, syscall.Exec(exe, os.Args, os.Environ()))
}
