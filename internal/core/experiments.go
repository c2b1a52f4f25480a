package core

// Default sweep parameters. The shapes in Table 1 are functions of n (and
// n/p); the sweeps hold g, L and n/p fixed while n grows, which is the
// regime the ratio analysis needs.
const (
	sweepG      = 8  // QSM/s-QSM gap
	sweepBSPG   = 2  // BSP gap
	sweepBSPL   = 16 // BSP latency (L/g = 8)
	sweepNP     = 8  // n/p for the rounds table
	sweepBSPDiv = 4  // BSP components = n/4 for the time table
)

// DefaultNs is the standard input-size sweep.
func DefaultNs() []int { return []int{1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 13} }

// qsmAt is a shared-memory row's registry point at gap sweepG.
func qsmAt(model, alg string, fanin int) Point {
	return Point{Model: model, Alg: alg, G: sweepG, Fanin: fanin}
}

// bspTimeAt is a Table 1c point: g = 2, L = 16 and the L/g tree fan-in.
func bspTimeAt(alg string) Point {
	return Point{Model: "bsp", Alg: alg, G: sweepBSPG, L: sweepBSPL, Fanin: sweepBSPL / sweepBSPG}
}

// bspRoundsAt is a Table 1d BSP point: g = 1, L = 2 and the n/p tree
// fan-in.
func bspRoundsAt(alg string) Point {
	return Point{Model: "bsp", Alg: alg, G: 1, L: 2, Fanin: sweepNP}
}

// table1 is the registry: one experiment per Table 1 row, in paper
// order (DESIGN.md's per-experiment index), with the size sweep left to
// Experiments and ExperimentByID. Every row is a registry point: p = n
// on the QSM and s-QSM, n/4 BSP components for time and n/8 processors
// for rounds. The gadget's group width rides on the fan-in axis, and the
// rounds rows use fan-in n/p. It is read-only; callers get copies.
var table1 = [...]Experiment{
	// --- Table 1a: QSM time ---
	{ID: "T1.LAC.det", Title: "QSM LAC (det bound vs dart LAC)", Quantity: "time",
		At: qsmAt("qsm", "lac-dart", 0), Algorithm: "DartLAC"},
	{ID: "T1.LAC.rand", Title: "QSM LAC (rand bound vs dart LAC)", Quantity: "time",
		At: qsmAt("qsm", "lac-dart", 0), Algorithm: "DartLAC"},
	{ID: "T1.LAC.rand.nprocs", Title: "QSM LAC (n-procs rand bound)", Quantity: "time",
		At: qsmAt("qsm", "lac-dart", 0), Algorithm: "DartLAC"},
	{ID: "T1.OR.det", Title: "QSM OR (det bound vs contention tree)", Quantity: "time",
		At: qsmAt("qsm", "or-contention", 0), Algorithm: "ContentionTree(g)"},
	{ID: "T1.OR.rand", Title: "QSM OR (rand bound vs contention tree)", Quantity: "time",
		At: qsmAt("qsm", "or-contention", 0), Algorithm: "ContentionTree(g)"},
	{ID: "T1.Parity.det", Title: "QSM Parity Θ w/ concurrent reads (gadget)", Quantity: "time",
		At: qsmAt("crqw", "parity-gadget", 4), Algorithm: "GadgetQSM on CRQW"},
	{ID: "T1.Parity.rand", Title: "QSM Parity (rand bound vs gadget)", Quantity: "time",
		At: qsmAt("qsm", "parity-gadget", 3), Algorithm: "GadgetQSM"},

	// --- Table 1b: s-QSM time ---
	{ID: "T2.LAC.det", Title: "s-QSM LAC (det bound vs dart LAC)", Quantity: "time",
		At: qsmAt("sqsm", "lac-dart", 0), Algorithm: "DartLAC"},
	{ID: "T2.LAC.rand", Title: "s-QSM LAC (rand bound vs dart LAC)", Quantity: "time",
		At: qsmAt("sqsm", "lac-dart", 0), Algorithm: "DartLAC"},
	{ID: "T2.OR.det", Title: "s-QSM OR (det bound vs read tree)", Quantity: "time",
		At: qsmAt("sqsm", "or", 2), Algorithm: "ReadTree(2)"},
	{ID: "T2.OR.rand", Title: "s-QSM OR (rand bound vs read tree)", Quantity: "time",
		At: qsmAt("sqsm", "or", 2), Algorithm: "ReadTree(2)"},
	{ID: "T2.Parity.det", Title: "s-QSM Parity Θ (binary XOR tree)", Quantity: "time",
		At: qsmAt("sqsm", "parity", 2), Algorithm: "TreeQSM(2)"},
	{ID: "T2.Parity.rand", Title: "s-QSM Parity (rand bound vs tree)", Quantity: "time",
		At: qsmAt("sqsm", "parity", 2), Algorithm: "TreeQSM(2)"},

	// --- Table 1c: BSP time ---
	{ID: "T3.LAC.det", Title: "BSP LAC (det bound vs dart LAC)", Quantity: "time",
		At: bspTimeAt("bsp-lac-dart"), PDiv: sweepBSPDiv, Algorithm: "DartLACBSP"},
	{ID: "T3.LAC.rand", Title: "BSP LAC (rand bound vs dart LAC)", Quantity: "time",
		At: bspTimeAt("bsp-lac-dart"), PDiv: sweepBSPDiv, Algorithm: "DartLACBSP"},
	{ID: "T3.OR.det", Title: "BSP OR (det bound vs L/g tree)", Quantity: "time",
		At: bspTimeAt("bsp-or"), PDiv: sweepBSPDiv, Algorithm: "RunBSP(L/g)"},
	{ID: "T3.OR.rand", Title: "BSP OR (rand bound vs L/g tree)", Quantity: "time",
		At: bspTimeAt("bsp-or"), PDiv: sweepBSPDiv, Algorithm: "RunBSP(L/g)"},
	{ID: "T3.Parity.det", Title: "BSP Parity Θ (L/g tree)", Quantity: "time",
		At: bspTimeAt("bsp-parity"), PDiv: sweepBSPDiv, Algorithm: "RunBSP(L/g)"},
	{ID: "T3.Parity.rand", Title: "BSP Parity (rand bound vs L/g tree)", Quantity: "time",
		At: bspTimeAt("bsp-parity"), PDiv: sweepBSPDiv, Algorithm: "RunBSP(L/g)"},

	// --- Table 1d: rounds ---
	{ID: "T4.LAC.qsm", Title: "QSM LAC rounds (prefix compaction)", Quantity: "rounds",
		At: qsmAt("qsm", "lac-det", sweepNP), PDiv: sweepNP, Algorithm: "DetLAC(n/p)"},
	{ID: "T4.LAC.sqsm", Title: "s-QSM LAC rounds (prefix compaction)", Quantity: "rounds",
		At: qsmAt("sqsm", "lac-det", sweepNP), PDiv: sweepNP, Algorithm: "DetLAC(n/p)"},
	{ID: "T4.LAC.bsp", Title: "BSP LAC rounds (prefix + route)", Quantity: "rounds",
		At: bspRoundsAt("bsp-lac-det"), PDiv: sweepNP, Algorithm: "prefix.RunBSP + route"},
	{ID: "T4.OR.qsm", Title: "QSM OR rounds Θ (block + contention tree)", Quantity: "rounds",
		At: qsmAt("qsm", "or-rounds", 0), PDiv: sweepNP, Algorithm: "RoundsQSM"},
	{ID: "T4.OR.sqsm", Title: "s-QSM OR rounds Θ (n/p tree)", Quantity: "rounds",
		At: qsmAt("sqsm", "or", sweepNP), PDiv: sweepNP, Algorithm: "RoundsSQSM"},
	{ID: "T4.OR.bsp", Title: "BSP OR rounds Θ (n/p tree)", Quantity: "rounds",
		At: bspRoundsAt("bsp-or"), PDiv: sweepNP, Algorithm: "RunBSP(n/p)"},
	{ID: "T4.Parity.qsm", Title: "QSM Parity rounds (n/p XOR tree)", Quantity: "rounds",
		At: qsmAt("qsm", "parity", sweepNP), PDiv: sweepNP, Algorithm: "TreeQSMRounds"},
	{ID: "T4.Parity.sqsm", Title: "s-QSM Parity rounds Θ (n/p XOR tree)", Quantity: "rounds",
		At: qsmAt("sqsm", "parity", sweepNP), PDiv: sweepNP, Algorithm: "TreeQSMRounds"},
	{ID: "T4.Parity.bsp", Title: "BSP Parity rounds Θ (n/p tree)", Quantity: "rounds",
		At: bspRoundsAt("bsp-parity"), PDiv: sweepNP, Algorithm: "RunBSP(n/p)"},
}

// Experiments returns the full registry over the default size sweep, in
// paper order; the experiments are the caller's own.
func Experiments() []*Experiment {
	ns := DefaultNs()
	exps := make([]*Experiment, len(table1))
	for i := range table1 {
		e := table1[i]
		e.Ns = ns
		exps[i] = &e
	}
	return exps
}

// ExperimentByID returns the caller's own copy of a registered
// experiment over the default size sweep, or nil for an unknown id.
func ExperimentByID(id string) *Experiment {
	for i := range table1 {
		if table1[i].ID == id {
			e := table1[i]
			e.Ns = DefaultNs()
			return &e
		}
	}
	return nil
}
