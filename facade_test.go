package repro

import (
	"testing"
)

func TestPublicQSMGD(t *testing.T) {
	// QSM(g,d) interpolates: d=1 matches QSM, d=g matches s-QSM on a
	// contention workload.
	run := func(mk func() (*QSMMachine, error)) int64 {
		m, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		bits := make([]int64, 64)
		for i := range bits {
			bits[i] = 1
		}
		if err := m.Load(0, bits); err != nil {
			t.Fatal(err)
		}
		out, err := ORContentionTree(m, 0, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		if m.Peek(out) != 1 {
			t.Fatal("wrong OR")
		}
		return int64(m.Report().TotalTime)
	}
	tQSM := run(func() (*QSMMachine, error) { return NewQSM(64, 4, 64, 64) })
	tGD1 := run(func() (*QSMMachine, error) { return NewQSMGD(64, 4, 1, 64, 64) })
	tGDg := run(func() (*QSMMachine, error) { return NewQSMGD(64, 4, 4, 64, 64) })
	tSQSM := run(func() (*QSMMachine, error) { return NewSQSM(64, 4, 64, 64) })
	if tGD1 != tQSM {
		t.Errorf("QSM(g,1) time %d ≠ QSM %d", tGD1, tQSM)
	}
	if tGDg != tSQSM {
		t.Errorf("QSM(g,g) time %d ≠ s-QSM %d", tGDg, tSQSM)
	}
	if _, err := NewQSMGD(4, 2, 0, 4, 4); err == nil {
		t.Error("want d ≥ 1 error")
	}
}

func TestPublicGSMAlgorithms(t *testing.T) {
	n := 128
	bits := RandomBits(17, n)
	r := n // γ = 1
	m, err := NewGSM(r, 2, 2, 1, n, GSMGatherCells(r))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadInputs(bits); err != nil {
		t.Fatal(err)
	}
	got, err := ParityGSM(m, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := ReferenceParity(bits); got != want {
		t.Fatalf("GSM parity = %d, want %d", got, want)
	}

	m2, err := NewGSM(r, 2, 2, 1, n, GSMGatherCells(r))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadInputs(bits); err != nil {
		t.Fatal(err)
	}
	gotOr, err := ORGSM(m2, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := ReferenceOr(bits); gotOr != want {
		t.Fatalf("GSM OR = %d, want %d", gotOr, want)
	}
}

func TestPublicRandomizedOR(t *testing.T) {
	n := 512
	bits := RandomBits(23, n)
	m, err := NewCRQW(n, 4, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(0, bits); err != nil {
		t.Fatal(err)
	}
	out, err := ORRandomized(m, 77, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Peek(out), ReferenceOr(bits); got != want {
		t.Fatalf("randomized OR = %d, want %d", got, want)
	}
}

func TestPublicBroadcast(t *testing.T) {
	n := 128
	m, err := NewQSM(n, 4, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(0, []int64{13}); err != nil {
		t.Fatal(err)
	}
	out, err := Broadcast(m, 0, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if m.Peek(out+i) != 13 {
			t.Fatalf("cell %d = %d, want 13", i, m.Peek(out+i))
		}
	}
}

func TestPublicLoadBalance(t *testing.T) {
	n := 8
	counts := []int64{3, 0, 2, 0, 0, 1, 0, 2}
	m, err := NewQSM(n, 1, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(0, counts); err != nil {
		t.Fatal(err)
	}
	out, h, err := LoadBalance(m, 0, n, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h != 8 {
		t.Fatalf("h = %d, want 8", h)
	}
	seen := 0
	for r := 0; r < h; r++ {
		if m.Peek(out+r) != 0 {
			seen++
		}
	}
	if seen != h {
		t.Fatalf("only %d of %d slots filled", seen, h)
	}
}

func TestPublicSampleAndPaddedSorts(t *testing.T) {
	n, p := 256, 8
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(n - i)
	}
	ms, err := NewBSP(p, 1, 4, n, SampleSortBSPPrivCells(n, p))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Scatter(keys); err != nil {
		t.Fatal(err)
	}
	if _, err := SampleSortBSP(ms, n); err != nil {
		t.Fatal(err)
	}

	vals := Uniform01(3, n)
	mp, err := NewBSP(p, 1, 4, n, PaddedSortBSPPrivCells(n, p, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Scatter(vals); err != nil {
		t.Fatal(err)
	}
	if _, err := PaddedSortBSP(mp, n, 2); err != nil {
		t.Fatal(err)
	}
}

func TestPublicExportAndShape(t *testing.T) {
	out, err := ExportTables(1, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 100 || out[:2] != "id" {
		t.Errorf("CSV export looks wrong: %q...", out[:20])
	}
	if _, err := ExportTables(1, "yaml"); err == nil {
		t.Error("want unknown-format error")
	}
	r, err := RunExperiment("T2.Parity.det", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ShapeOf(r)
	if err != nil {
		t.Fatal(err)
	}
	if s.ShapeRatio < 1.9 || s.ShapeRatio > 2.1 {
		t.Errorf("shape ratio = %v, want ≈ 2", s.ShapeRatio)
	}
}

func TestPublicAnalyzeKnowledgeQSM(t *testing.T) {
	const n = 4
	runner := func(bits []int64) (*QSMMachine, error) {
		m, err := NewQSM(n, 1, n, 2*n)
		if err != nil {
			return nil, err
		}
		m.EnableTracing()
		if err := m.Load(0, bits); err != nil {
			return nil, err
		}
		m.Phase(func(c *QSMCtx) {
			v := c.Read(c.Proc())
			c.Write(n+c.Proc(), v)
		})
		return m, nil
	}
	a, err := AnalyzeKnowledge(runner, n)
	if err != nil {
		t.Fatal(err)
	}
	if a.Phases != 1 || a.MaxKnow[0] != 1 {
		t.Errorf("phases=%d maxKnow=%v", a.Phases, a.MaxKnow)
	}
}

func TestPublicSensitivity(t *testing.T) {
	if MajorityFn(5).Sensitivity() != 3 {
		t.Errorf("s(Maj_5) = %d, want 3", MajorityFn(5).Sensitivity())
	}
	if ParityFn(6).Sensitivity() != 6 {
		t.Error("parity must be fully sensitive")
	}
}

func TestPublicThinWrappers(t *testing.T) {
	n := 64
	bits := RandomBits(31, n)

	// ParityGadget via the facade.
	gb := 2
	procs := ((n + gb - 1) / gb) * (gb << uint(gb))
	mg, err := NewQSM(procs, 2, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.Load(0, bits); err != nil {
		t.Fatal(err)
	}
	out, err := ParityGadget(mg, 0, n, gb)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Peek(out) != ReferenceParity(bits) {
		t.Error("gadget parity wrong via facade")
	}

	// ORReadTree + PrefixSums + ListRank.
	mr, err := NewSQSM(n, 2, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := mr.Load(0, bits); err != nil {
		t.Fatal(err)
	}
	if out, err := ORReadTree(mr, 0, n, 4); err != nil || mr.Peek(out) != ReferenceOr(bits) {
		t.Errorf("ORReadTree: %v", err)
	}
	mp, err := NewQSM(n, 1, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Load(0, bits); err != nil {
		t.Fatal(err)
	}
	ps, err := PrefixSums(mp, 0, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, b := range bits {
		want += b
	}
	if mp.Peek(ps+n-1) != want {
		t.Error("PrefixSums total wrong")
	}
	ml, err := NewQSM(n, 1, n, n)
	if err != nil {
		t.Fatal(err)
	}
	next := make([]int64, n)
	for j := 0; j+1 < n; j++ {
		next[j] = int64(j + 1)
	}
	next[n-1] = int64(n - 1)
	if err := ml.Load(0, next); err != nil {
		t.Fatal(err)
	}
	ranks, err := ListRank(ml, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if ml.Peek(ranks) != int64(n-1) {
		t.Error("ListRank head rank wrong")
	}

	// ORBSP.
	p := 8
	mb, err := NewBSP(p, 1, 2, n, ORBSPPrivCells(n, p))
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.Scatter(bits); err != nil {
		t.Fatal(err)
	}
	if v, err := ORBSP(mb, n, 4); err != nil || v != ReferenceOr(bits) {
		t.Errorf("ORBSP: %v", err)
	}
}

func TestPublicRenderers(t *testing.T) {
	if testing.Short() {
		t.Skip("renderers run full sweeps")
	}
	out, err := RenderTheoremSweeps(1)
	if err != nil || len(out) < 100 {
		t.Errorf("RenderTheoremSweeps: %v (%d bytes)", err, len(out))
	}
	out, err = RenderParamSweeps(1)
	if err != nil || len(out) < 100 {
		t.Errorf("RenderParamSweeps: %v (%d bytes)", err, len(out))
	}
	out, err = RenderTables(1)
	if err != nil || len(out) < 1000 {
		t.Errorf("RenderTables: %v (%d bytes)", err, len(out))
	}
}

// The same ledger on BSP: a component's cell is its inbox, so the knowledge
// of the parity tree reaches component 0 one superstep after the last send.
func TestPublicAnalyzeKnowledgeBSP(t *testing.T) {
	const n, p = 4, 4
	runner := func(bits []int64) (*BSPMachine, error) {
		m, err := NewBSP(p, 1, 2, n, ParityBSPPrivCells(n, p))
		if err != nil {
			return nil, err
		}
		m.EnableTracing()
		if err := m.Scatter(bits); err != nil {
			return nil, err
		}
		_, err = ParityBSP(m, n, 2)
		return m, err
	}
	a, err := AnalyzeKnowledge(runner, n)
	if err != nil {
		t.Fatal(err)
	}
	if a.Procs != p || a.Cells != p || a.Phases != 5 {
		t.Fatalf("shape %d×%d over %d supersteps, want %d×%d over 5", a.Procs, a.Cells, a.Phases, p, p)
	}
	if got := a.MaxKnow[a.Phases-1]; got != n {
		t.Errorf("final max |Know| = %d, want %d", got, n)
	}
}

func TestPublicAnalyzeKnowledgeGSM(t *testing.T) {
	const n = 3
	runner := func(bits []int64) (*GSMMachine, error) {
		m, err := NewGSM(n, 1, 1, 1, n, 2*n)
		if err != nil {
			return nil, err
		}
		m.EnableTracing()
		if err := m.LoadInputs(bits); err != nil {
			return nil, err
		}
		m.Phase(func(c *GSMCtx) {
			info := c.Read(c.Proc())
			c.Write(n+c.Proc(), info)
		})
		return m, nil
	}
	a, err := AnalyzeKnowledge(runner, n)
	if err != nil {
		t.Fatal(err)
	}
	if a.Phases != 1 || a.MaxKnow[0] != 1 {
		t.Errorf("phases=%d know=%v", a.Phases, a.MaxKnow)
	}
}
