package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cost"
)

// refLine is the fmt-based rendering of one recorded event that the
// strconv renderer replaced; it is the oracle the rendered stream must
// match byte for byte.
func refLine(l *EventLog, e logEvent) string {
	switch e.kind {
	case evStart:
		return fmt.Sprintf("phase %d start", e.phase)
	case evRequest:
		return fmt.Sprintf("phase %d p%d %s %d=%s",
			e.phase, e.proc, e.reqKind, e.addr, e.payload)
	default:
		pc := l.ends[e.addr]
		return fmt.Sprintf(
			"phase %d end: time=%d m_op=%d m_rw=%d κ=%d round=%v",
			e.phase, pc.Time, pc.MaxOps, pc.MaxRW, pc.Contention, pc.IsRound)
	}
}

// checkRender asserts that Lines and String both match the reference.
func checkRender(t *testing.T, l *EventLog) {
	t.Helper()
	want := make([]string, len(l.events))
	for i, e := range l.events {
		want[i] = refLine(l, e)
	}
	got := l.Lines()
	if len(got) != len(want) {
		t.Fatalf("Lines: %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Lines()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if got, want := l.String(), strings.Join(want, "\n"); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestEventLogRenderMatchesReference(t *testing.T) {
	var empty EventLog
	if s := empty.String(); s != "" {
		t.Fatalf("empty log renders %q, want \"\"", s)
	}
	checkRender(t, &empty)

	l := &EventLog{}
	payloads := []string{"", "∅", "0", "-7", "1,2,3", "from=3 tag=1 val=-9", "κ≤β·μ"}
	addrs := []int32{0, 7, -1, 12345, math.MinInt32, math.MaxInt32}
	phases := []int{0, 9, 10, 4711, math.MaxInt32}
	for _, ph := range phases {
		l.PhaseStart(ph)
		for i, kind := range []RequestKind{KindRead, KindWrite, KindSend, RequestKind(7)} {
			for j, a := range addrs {
				l.Request(ph, Request{Proc: i * j * 131, Kind: kind, Addr: a,
					Payload: payloads[(i+j)%len(payloads)]})
			}
		}
		l.PhaseEnd(ph, cost.PhaseCost{Time: cost.Time(ph) * 3, MaxOps: int64(ph),
			MaxRW: -1, Contention: math.MaxInt64, IsRound: ph%2 == 0})
	}
	l.PhaseEnd(1, cost.PhaseCost{Time: math.MinInt64, MaxOps: math.MinInt64, IsRound: true})
	checkRender(t, l)
}

// String renders a large log in a constant number of allocations: the
// buffer is sized once from the recorded events, then converted once.
func TestEventLogStringAllocs(t *testing.T) {
	for _, phases := range []int{10, 1000} {
		l := &EventLog{}
		for ph := 0; ph < phases; ph++ {
			l.PhaseStart(ph)
			for p := 0; p < 100; p++ {
				l.Request(ph, Request{Proc: p, Kind: KindWrite, Addr: int32(1000 + p),
					Payload: strconv.Itoa(p % 2)})
			}
			l.PhaseEnd(ph, cost.PhaseCost{Time: 4, MaxOps: 2, MaxRW: 2, Contention: 1, IsRound: true})
		}
		if n := testing.AllocsPerRun(3, func() { _ = l.String() }); n > 4 {
			t.Fatalf("String on a %d-event log: %.0f allocations, want ≤ 4", l.Len(), n)
		}
	}
}

// FuzzEventLogRender drives arbitrary event scripts through the Observer
// methods and checks Lines and String against the fmt reference. Each
// script byte picks the next event: a phase start, a request of a kind
// (including out-of-range kinds) or a phase end.
func FuzzEventLogRender(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4}, int32(3), int32(-5), "1,2", int64(9), true)
	f.Add([]byte{}, int32(0), int32(0), "", int64(0), false)
	f.Add([]byte{0, 5, 4}, int32(math.MaxInt32), int32(math.MinInt32), "∅", int64(math.MinInt64), false)
	f.Fuzz(func(t *testing.T, script []byte, phase, addr int32, payload string, x int64, round bool) {
		l := &EventLog{}
		for i, b := range script {
			ph := int(phase) + i
			switch b % 6 {
			case 0:
				l.PhaseStart(ph)
			case 4:
				l.PhaseEnd(ph, cost.PhaseCost{Time: cost.Time(x), MaxOps: x + int64(i),
					MaxRW: -x, Contention: int64(b), IsRound: round})
			default:
				l.Request(ph, Request{Proc: int(b), Kind: RequestKind(int8(b) - 1),
					Addr: addr + int32(i), Payload: payload})
			}
		}
		checkRender(t, l)
	})
}
