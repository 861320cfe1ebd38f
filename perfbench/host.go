package main

import (
	"math/rand"
	"runtime"
	gslices "slices" // qurkd.go has a constant named slices
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// refNominal is the CPU time the reference loop is scaled to: a
// normalized time reads as if the host ran the reference loop in
// exactly this long.
const refNominal = 25 * time.Millisecond

// refRuns is how many times the reference loop runs before each
// segment.
const refRuns = 4

// The reference loop's inputs, built once. refNear and the first
// 1<<15 values fit in a core's L2 cache; refIndex and refVals, about
// 16 MB, do not, as the engine's heap does not. The loop allocates
// nothing, so its cost does not depend on the workload's heap or on the
// garbage collector, only on how fast the host runs this code and
// serves its memory.
var (
	refKeys  []string
	refNear  map[string]int
	refIndex map[string]int
	refVals  []uint64
	refWork  []uint64
	refSink  uint64
)

func init() {
	rng := rand.New(rand.NewSource(1))
	refKeys = make([]string, 1<<16)
	refIndex = make(map[string]int, len(refKeys))
	refNear = make(map[string]int, 1<<12)
	for i := range refKeys {
		refKeys[i] = "ref-" + strconv.Itoa(rng.Int())
		refIndex[refKeys[i]] = i
		if i < 1<<12 {
			refNear[refKeys[i]] = i
		}
	}
	refVals = make([]uint64, 1<<20)
	for i := range refVals {
		refVals[i] = rng.Uint64()
	}
	refWork = make([]uint64, 1<<15)
}

// refLoop is a fixed piece of CPU work in the style of the engine's
// own: sorting, hashing strings and map lookups, half of it on
// cache-resident data and half on data that is not. It returns the CPU
// time its thread spent on it. The benchmark runs it before every
// segment; the median over a run is the host's speed.
func refLoop() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	h := uint64(14695981039346656037) // FNV-1a
	for rep := 0; rep < 3; rep++ {
		copy(refWork, refVals)
		gslices.Sort(refWork)
		for _, k := range refKeys[:len(refNear)] {
			h ^= refWork[refNear[k]*7%len(refWork)]
			h *= 1099511628211
			for j := 0; j < len(k); j++ {
				h ^= uint64(k[j])
				h *= 1099511628211
			}
		}
	}
	for _, k := range refKeys[:1<<15] {
		for j := 0; j < len(k); j++ {
			h ^= uint64(k[j])
			h *= 1099511628211
		}
		h ^= refVals[(uint64(refIndex[k])*2654435761+h)%uint64(len(refVals))]
		h *= 1099511628211
	}
	refSink += h
	return threadCPU() - start
}

// threadCPU is the CPU time the calling OS thread has used. It reads
// CLOCK_THREAD_CPUTIME_ID, which is exact; getrusage brings a running
// thread's time up to date only at the scheduler's tick.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTimes are the CPU time the process has used across all its
// threads, in user mode and in total (user and kernel).
func cpuTimes() (user, total time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
