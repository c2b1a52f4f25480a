package main

import "time"

// The host's speed drifts: on the reference box (a 2-vCPU VM) the CPU time
// of one chaos round at one seed ranged over 2x within an hour, with no
// steal, as other tenants came and went. The gated time metrics are
// therefore scaled to the reference box's speed: before each round (and
// each set-up) the benchmark runs a fixed calibration loop of its own, and
// every time metric is multiplied by calReference over the run's median
// loop time. The loop calls nothing in the repository, so no change to the
// program moves it, and it allocates nothing, so the program's heap and
// its garbage collector do not move it either.

// calReference is the calibration loop's CPU time on the reference box.
const calReference = 15 * time.Millisecond

const (
	calNodes = 3000 // keys inserted per repetition
	calReps  = 24
)

// calTree is a binary search tree over preallocated nodes: the loop's
// branchy, pointer-chasing half. calSum is a map: the hashing half.
type calTree struct {
	key         []int
	left, right []int32
}

var (
	calT = calTree{
		key:   make([]int, 0, calNodes),
		left:  make([]int32, calNodes),
		right: make([]int32, calNodes),
	}
	calSum  = make(map[int]int, calNodes)
	calSink int
)

func (t *calTree) insert(k int) {
	n := int32(len(t.key))
	t.key = append(t.key, k)
	t.left[n], t.right[n] = -1, -1
	if n == 0 {
		return
	}
	for i := int32(0); ; {
		next := &t.right[i]
		if k < t.key[i] {
			next = &t.left[i]
		}
		if *next < 0 {
			*next = n
			return
		}
		i = *next
	}
}

// walk visits the keys in order without recursion or allocation, using the
// right links of a threaded (Morris) traversal and restoring them.
func (t *calTree) walk(f func(int)) {
	for i := int32(0); i >= 0; {
		if t.left[i] < 0 {
			f(t.key[i])
			i = t.right[i]
			continue
		}
		p := t.left[i]
		for t.right[p] >= 0 && t.right[p] != i {
			p = t.right[p]
		}
		if t.right[p] < 0 {
			t.right[p] = i
			i = t.left[i]
		} else {
			t.right[p] = -1
			f(t.key[i])
			i = t.right[i]
		}
	}
}

// calibrate runs the calibration loop once and returns its CPU time.
func calibrate(cpu *cpuMeter) time.Duration {
	c0 := cpu.now()
	x := uint64(88172645463325252)
	s := 0
	for rep := 0; rep < calReps; rep++ {
		calT.key = calT.key[:0]
		clear(calSum)
		for i := 0; i < calNodes; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := int(x % 100000)
			calT.insert(k)
			calSum[k] += i
		}
		calT.walk(func(k int) { s += calSum[k] & 7 })
	}
	calSink += s
	return cpu.now() - c0
}

// speedLog collects the calibration loop's CPU time, in seconds, before
// each timed part of a run; a nil log runs no loop.
type speedLog struct {
	cpu   *cpuMeter
	loops []float64
}

func (l *speedLog) sample() {
	if l != nil {
		l.loops = append(l.loops, calibrate(l.cpu).Seconds())
	}
}

// factor converts the run's CPU times to the reference box's speed.
func (l *speedLog) factor() float64 { return calReference.Seconds() / median(l.loops) }
