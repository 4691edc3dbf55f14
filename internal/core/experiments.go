package core

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/c25519"
	"repro/internal/curve"
	"repro/internal/gates"
	"repro/internal/isa"
	"repro/internal/jobshop"
	"repro/internal/p256"
	"repro/internal/power"
	"repro/internal/scalar"
	"repro/internal/sched"
	"repro/internal/trace"
)

// This file regenerates the paper's tables and figures (see DESIGN.md's
// per-experiment index). Every function returns structured data plus a
// rendered report so the cmd tools and benchmarks share one source of
// truth.

// ---------------------------------------------------------------- E2: Table I

// TableIResult is the scheduled double-and-add block.
type TableIResult struct {
	Muls, Adds int
	Makespan   int
	Optimal    bool
	LowerBound int
	Listing    string // Table I-style rendering
}

// TableI schedules the 15-mult/13-add double-and-add block with the
// exact branch-and-bound solver and renders a Table I-style listing.
func TableI(res sched.Resources) (*TableIResult, error) {
	return TableIObserved(res, nil)
}

// TableIObserved is TableI with solver progress reporting: progress
// (when non-nil) receives the branch-and-bound incumbent/bound
// trajectory while the block is being scheduled.
func TableIObserved(res sched.Resources, progress jobshop.ProgressFunc) (*TableIResult, error) {
	k := scalar.Scalar{0x9E3779B97F4A7C15, 2, 3, 4}
	p := curve.Generator()
	table := curve.BuildTable(curve.NewMultiBase(p))
	tr, err := trace.BuildDblAdd(k, p, table)
	if err != nil {
		return nil, err
	}
	r, err := sched.Schedule(tr.Graph, res, sched.Options{
		Method: sched.MethodBnB, BnBBudget: 10_000_000, Progress: progress,
	})
	if err != nil {
		return nil, err
	}
	return &TableIResult{
		Muls:       tr.Graph.NumMuls(),
		Adds:       tr.Graph.NumAdds(),
		Makespan:   r.Makespan,
		Optimal:    r.Optimal,
		LowerBound: r.LowerBound,
		Listing:    FormatScheduleTable(tr.Graph, r),
	}, nil
}

// FormatScheduleTable renders a schedule in the style of the paper's
// Table I: one row per cycle with the multiplier issue, adder issue and
// write-backs.
func FormatScheduleTable(g *trace.Graph, r *sched.Result) string {
	type row struct {
		mul, add string
		wb       []string
	}
	rows := make([]row, r.Makespan+1)
	res := sched.Resources{MulLatency: r.Program.MulLatency, AddLatency: r.Program.AddLatency}
	for _, op := range g.Ops {
		c := r.Starts[op.ID]
		lat := res.AddLatency
		slotStr := fmt.Sprintf("%s", op.Label)
		if op.Unit == trace.UnitMul {
			lat = res.MulLatency
			rows[c].mul = slotStr
		} else {
			rows[c].add = slotStr
		}
		done := c + lat
		if done <= r.Makespan {
			rows[done].wb = append(rows[done].wb, op.Label)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s | %-14s | %-14s | %s\n", "Cycle", "Fp2 Mult", "Fp2 Add/Sub", "Write back")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 72))
	for c, rw := range rows {
		if rw.mul == "" && rw.add == "" && len(rw.wb) == 0 {
			continue
		}
		sort.Strings(rw.wb)
		fmt.Fprintf(&b, "%-6d | %-14s | %-14s | %s\n", c, rw.mul, rw.add, strings.Join(rw.wb, " "))
	}
	return b.String()
}

// ------------------------------------------------------------- E1: op profile

// OpMixResult reproduces the profiling observation motivating the
// Fp2-multiplier-centric datapath ("Fp2 multiplications account for
// approximately 57% of total arithmetic operations").
type OpMixResult struct {
	Stats    trace.Stats
	Sections map[string]trace.Stats
}

// OpMix profiles the functional SM trace.
func (p *Processor) OpMix() OpMixResult {
	return OpMixResult{Stats: p.TraceStats()}
}

// --------------------------------------------------------------- E4: Figure 4

// Figure4 evaluates the calibrated voltage model on the measured range.
type Figure4Result struct {
	Cycles     int
	Points     []power.SweepPoint
	MinEnergyV float64
	MinEnergyJ float64
}

// Figure4 computes the voltage sweep (Fmax, latency, energy vs VDD).
func (p *Processor) Figure4(n int) (*Figure4Result, error) {
	m, err := p.PowerModel()
	if err != nil {
		return nil, err
	}
	pts := m.Sweep(power.AnchorLowV, power.AnchorHighV, n)
	v, e := m.MinEnergyVoltage()
	return &Figure4Result{Cycles: p.CyclesEndoModeled(), Points: pts, MinEnergyV: v, MinEnergyJ: e}, nil
}

// --------------------------------------------------------------- E6: Figure 3

// Figure3 returns the area breakdown (1400 kGE, 1.76 x 3.56 mm).
func (p *Processor) Figure3() gates.Breakdown { return p.Area() }

// --------------------------------------------------------------- E5: Table II

// TableIIResult holds our regenerated rows and the headline ratios.
type TableIIResult struct {
	OursHighV, OursLowV CompRow
	Prior               []CompRow
	// Headline ratios of the paper (expected 3.66x, 15.5x, 5.14x).
	SpeedupVsP256ASIC  float64
	SpeedupVsFourQFPGA float64
	EnergyGainVsECDSA  float64
	// Cross-check from our own same-silicon baselines.
	P256ModelCycles    int
	C25519ModelCycles  int
	FourQCycles        int
	ModelSpeedupP256   float64
	ModelSpeedupC25519 float64
}

// TableII regenerates the comparison table.
func (p *Processor) TableII() (*TableIIResult, error) {
	m, err := p.PowerModel()
	if err != nil {
		return nil, err
	}
	area := p.Area()
	mk := func(v float64) CompRow {
		lat := m.Latency(v)
		return CompRow{
			Design: "Ours (model)", Platform: "ASIC 65nm SOTB", Curve: "FourQ", Cores: 1,
			Area:    fmt.Sprintf("%.0f kGE", area.TotalKGE),
			AreaKGE: area.TotalKGE, VDD: v,
			LatencyMS: lat * 1e3, OpsPerSec: 1 / lat,
			EnergyUJ:           m.EnergyPerSM(v) * 1e6,
			LatencyAreaProduct: gates.LatencyAreaProduct(area.TotalKGE, lat),
		}
	}
	r := &TableIIResult{
		OursHighV: mk(power.AnchorHighV),
		OursLowV:  mk(power.AnchorLowV),
		Prior:     PriorArt,
	}
	r.SpeedupVsP256ASIC = P256ASICLatencyMS / r.OursHighV.LatencyMS
	r.SpeedupVsFourQFPGA = FourQFPGALatencyMS / r.OursHighV.LatencyMS
	r.EnergyGainVsECDSA = ECDSAASICEnergyUJ / r.OursLowV.EnergyUJ

	// Same-silicon cross-check: run our P-256 and Curve25519 baselines
	// through their op-count cycle models.
	kBig, _ := new(big.Int).SetString("7a2f6b3c9d1e8f4a5b6c7d8e9f0a1b2c3d4e5f60718293a4b5c6d7e8f9012345", 16)
	pr, err := p256.ScalarMultWNAF(kBig, p256.Gx, p256.Gy)
	if err != nil {
		return nil, err
	}
	r.P256ModelCycles = p256.DefaultCycleModel().Cycles(pr.Ops)
	var sb [32]byte
	sb[0] = 0x45
	sb[10] = 0x99
	ck := c25519.ClampScalar(sb)
	cr, err := c25519.ScalarMult(ck, c25519.BasePointU)
	if err != nil {
		return nil, err
	}
	r.C25519ModelCycles = c25519.DefaultCycleModel().Cycles(cr.Ops)
	r.FourQCycles = p.CyclesEndoModeled()
	r.ModelSpeedupP256 = float64(r.P256ModelCycles) / float64(r.FourQCycles)
	r.ModelSpeedupC25519 = float64(r.C25519ModelCycles) / float64(r.FourQCycles)
	return r, nil
}

// MultiCore models an n-core instantiation of the SM unit, the scaling
// the FPGA prior art of Table II uses ([10] and [22] report 11-core
// versions): datapath, register file and multiplier replicate per core
// while the program ROM and controller are shared, and throughput scales
// linearly (SMs are independent).
func (p *Processor) MultiCore(n int, vdd float64) (CompRow, error) {
	if n < 1 {
		return CompRow{}, fmt.Errorf("core: need at least one core, got %d", n)
	}
	m, err := p.PowerModel()
	if err != nil {
		return CompRow{}, err
	}
	area := p.Area()
	perCore, shared := 0.0, 0.0
	for _, bl := range area.Blocks {
		switch bl.Name {
		case "program ROM", "controller / FSM / digit logic":
			shared += bl.KGE
		default:
			perCore += bl.KGE
		}
	}
	kge := float64(n)*perCore + shared
	lat := m.Latency(vdd)
	return CompRow{
		Design: fmt.Sprintf("Ours (model, %d cores)", n), Platform: "ASIC 65nm SOTB",
		Curve: "FourQ", Cores: n,
		Area: fmt.Sprintf("%.0f kGE", kge), AreaKGE: kge, VDD: vdd,
		LatencyMS: lat * 1e3, OpsPerSec: float64(n) / lat,
		EnergyUJ:           m.EnergyPerSM(vdd) * 1e6,
		LatencyAreaProduct: gates.LatencyAreaProduct(kge, lat),
	}, nil
}

// ------------------------------------------------------------- E7: ablation

// AblationRow compares scheduling methods on the same trace.
type AblationRow struct {
	Method     string
	Makespan   int
	LowerBound int
	Optimal    bool
}

// SchedulerAblation runs the scheduler comparison on the DBLADD block
// and, when full is true, list-vs-blocked on the whole SM trace.
func SchedulerAblation(res sched.Resources, full bool) ([]AblationRow, error) {
	var rows []AblationRow
	k := scalar.Scalar{5, 6, 7, 8}
	g := curve.Generator()
	table := curve.BuildTable(curve.NewMultiBase(g))
	blockTr, err := trace.BuildDblAdd(k, g, table)
	if err != nil {
		return nil, err
	}
	for _, m := range []sched.Method{sched.MethodList, sched.MethodAnneal, sched.MethodTabu, sched.MethodBnB, sched.MethodBlocked} {
		r, err := sched.Schedule(blockTr.Graph, res, sched.Options{
			Method: m, BnBBudget: 3_000_000, AnnealIters: 800, BlockSize: 7,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Method:   "dbladd/" + m.String(),
			Makespan: r.Makespan, LowerBound: r.LowerBound, Optimal: r.Optimal,
		})
	}
	if full {
		smTr, err := trace.BuildScalarMult(k, curve.GeneratorAffine())
		if err != nil {
			return nil, err
		}
		for _, m := range []sched.Method{sched.MethodList, sched.MethodBlocked} {
			r, err := sched.Schedule(smTr.Graph, res, sched.Options{Method: m, BlockSize: 28})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Method:   "fullsm/" + m.String(),
				Makespan: r.Makespan, LowerBound: r.LowerBound, Optimal: r.Optimal,
			})
		}
	}
	return rows, nil
}

// ForwardingAblation compares the default datapath against one whose
// adder results must round-trip through the register file (modelled as
// one extra cycle of adder latency), quantifying the forwarding paths the
// paper highlights in Fig. 1.
func ForwardingAblation(res sched.Resources) (withFwd, withoutFwd int, err error) {
	k := scalar.Scalar{9, 10, 11, 12}
	g := curve.Generator()
	table := curve.BuildTable(curve.NewMultiBase(g))
	tr, err := trace.BuildDblAdd(k, g, table)
	if err != nil {
		return 0, 0, err
	}
	r1, err := sched.Schedule(tr.Graph, res, sched.Options{Method: sched.MethodList})
	if err != nil {
		return 0, 0, err
	}
	slow := res
	slow.AddLatency++
	slow.MulLatency++
	r2, err := sched.Schedule(tr.Graph, slow, sched.Options{Method: sched.MethodList})
	if err != nil {
		return 0, 0, err
	}
	return r1.Makespan, r2.Makespan, nil
}

// ElisionAblation quantifies the write-back elision optimization on the
// full SM program: how many register-file writes the forwarding network
// absorbs entirely.
type ElisionResult struct {
	TotalOps     int
	ElidedWrites int
	SavedShare   float64
}

// ElisionAblation schedules the full SM with the elision pass and
// reports the write-traffic reduction.
func ElisionAblation(res sched.Resources) (*ElisionResult, error) {
	k := scalar.Scalar{13, 14, 15, 16}
	tr, err := trace.BuildScalarMult(k, curve.GeneratorAffine())
	if err != nil {
		return nil, err
	}
	r, err := sched.Schedule(tr.Graph, res, sched.Options{Method: sched.MethodList, ElideWritebacks: true})
	if err != nil {
		return nil, err
	}
	total := len(tr.Graph.Ops)
	return &ElisionResult{
		TotalOps:     total,
		ElidedWrites: r.ElidedWrites,
		SavedShare:   float64(r.ElidedWrites) / float64(total),
	}, nil
}

// ROMStats reports the control-store footprint.
type ROMStats struct {
	Words    int
	Bits     int
	Programs int
}

// ROM reports the size of the functional + endo control ROMs.
func (p *Processor) ROM() (ROMStats, error) {
	w1, err := p.Program().ROMImage()
	if err != nil {
		return ROMStats{}, err
	}
	w2, err := p.progs[ProgramEndo].result.Program.ROMImage()
	if err != nil {
		return ROMStats{}, err
	}
	return ROMStats{Words: len(w1) + len(w2), Bits: 64 * (len(w1) + len(w2)), Programs: 2}, nil
}

// LowerBoundOfInstance exposes the jobshop bound for reporting.
func LowerBoundOfInstance(g *trace.Graph, res sched.Resources) (int, error) {
	inst, err := sched.BuildInstance(g, res)
	if err != nil {
		return 0, err
	}
	return jobshop.LowerBound(inst)
}

// ProgramSummary renders a one-paragraph description of a program.
func ProgramSummary(p *isa.Program) string {
	return fmt.Sprintf("%d instructions, %d cycles, %d registers (mul latency %d, add latency %d)",
		len(p.Instrs), p.Makespan, p.NumRegs, p.MulLatency, p.AddLatency)
}
