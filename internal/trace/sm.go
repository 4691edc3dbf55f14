package trace

import (
	"fmt"

	"repro/internal/curve"
	"repro/internal/fp2"
	"repro/internal/scalar"
)

// This file is the reproduction of Fig. 2(a) of the paper: FourQ's scalar
// multiplication written against the high-level arithmetic DSL, whose
// execution leaves behind the microinstruction trace. The algorithm is
// the same as curve.ScalarMult (the paper's Algorithm 1 under the
// documented decomposition substitution), so the recorded trace evaluates
// to exactly the library's result.

// pointVals is a point in extended coordinates (R1) inside the trace.
type pointVals struct {
	X, Y, Z, Ta, Tb Val
}

// cachedVals is a cached point (X+Y, Y-X, 2Z, 2dT) inside the trace.
type cachedVals struct {
	XpY, YmX, Z2, T2d Val
}

// smBuilder wraps Builder with the curve constants it needs and the
// op ranges of the trace's sections.
type smBuilder struct {
	*Builder
	d2       Val // 2d constant
	one      Val
	sections map[string][2]int
}

// newSMBuilder starts a scalar-multiplication trace for the recoded
// scalar: the zero, one and two constants every program shares (two is
// the cached identity's Z2, read by the parity correction).
func newSMBuilder(rec scalar.Recoded, corrected bool) *smBuilder {
	bb := NewBuilder()
	bb.SetScalar(rec, corrected)
	b := &smBuilder{Builder: bb, sections: map[string][2]int{}}
	b.Zero()
	b.one = b.Const("one", fp2.One())
	b.Const("two", fp2.FromUint64(2, 0))
	return b
}

// section records the ops f emits as the trace section name.
func (b *smBuilder) section(name string, f func()) {
	start := len(b.g.Ops)
	f()
	b.sections[name] = [2]int{start, len(b.g.Ops)}
}

// identity is the neutral point the main loops start from.
func (b *smBuilder) identity() pointVals {
	return pointVals{X: b.Zero(), Y: b.one, Z: b.one, Ta: b.Zero(), Tb: b.one}
}

// double records the extended twisted Edwards doubling
// (7 multiplier ops + 6 adder ops), mirroring curve.Double.
func (b *smBuilder) double(p pointVals, tag string) pointVals {
	t1 := b.Sqr(p.X, tag+".x2")
	t2 := b.Sqr(p.Y, tag+".y2")
	xy := b.Add(p.X, p.Y, tag+".x+y")
	t3 := b.Sqr(xy, tag+".(x+y)2")
	tb := b.Add(t1, t2, tag+".tb")
	ta := b.Sub(t3, tb, tag+".ta")
	g := b.Sub(t2, t1, tag+".g")
	z2 := b.Sqr(p.Z, tag+".z2")
	zz := b.Add(z2, z2, tag+".2z2")
	f := b.Sub(zz, g, tag+".f")
	return pointVals{
		X:  b.Mul(ta, f, tag+".X"),
		Y:  b.Mul(g, tb, tag+".Y"),
		Z:  b.Mul(f, g, tag+".Z"),
		Ta: ta,
		Tb: tb,
	}
}

// addCached records the complete addition P + Q with Q given as explicit
// cached values (8 multiplier ops + 6 adder ops), mirroring
// curve.AddCached.
func (b *smBuilder) addCached(p pointVals, q cachedVals, tag string) pointVals {
	t0 := b.Mul(p.Ta, p.Tb, tag+".T1")
	t1 := b.Mul(t0, q.T2d, tag+".t1")
	t2 := b.Mul(p.Z, q.Z2, tag+".t2")
	xy := b.Add(p.X, p.Y, tag+".x+y")
	yx := b.Sub(p.Y, p.X, tag+".y-x")
	t3 := b.Mul(xy, q.XpY, tag+".t3")
	t4 := b.Mul(yx, q.YmX, tag+".t4")
	ta := b.Sub(t3, t4, tag+".ta")
	tb := b.Add(t3, t4, tag+".tb")
	f := b.Sub(t2, t1, tag+".f")
	g := b.Add(t2, t1, tag+".g")
	return pointVals{
		X:  b.Mul(ta, f, tag+".X"),
		Y:  b.Mul(g, tb, tag+".Y"),
		Z:  b.Mul(f, g, tag+".Z"),
		Ta: ta,
		Tb: tb,
	}
}

// addTable records P + s_i*T[v_i] with runtime table operands and the
// dynamic sign op: the paper's Fig. 2(b) double-and-add ADD block
// (8 multiplier ops + 7 adder ops; together with double this is the
// 15-mult/13-add sequence of Section III-C).
func (b *smBuilder) addTable(p pointVals, digit int, tag string) pointVals {
	t0 := b.Mul(p.Ta, p.Tb, tag+".T1")
	t2dRaw := b.TableRead(CoordT2d, digit)
	t2ds := b.DynSign(t2dRaw, digit, tag+".signsel")
	t1 := b.Mul(t0, t2ds, tag+".t1")
	t2 := b.Mul(p.Z, b.TableRead(CoordZ2, digit), tag+".t2")
	xy := b.Add(p.X, p.Y, tag+".x+y")
	yx := b.Sub(p.Y, p.X, tag+".y-x")
	t3 := b.Mul(xy, b.TableRead(CoordXplusY, digit), tag+".t3")
	t4 := b.Mul(yx, b.TableRead(CoordYminusX, digit), tag+".t4")
	ta := b.Sub(t3, t4, tag+".ta")
	tb := b.Add(t3, t4, tag+".tb")
	f := b.Sub(t2, t1, tag+".f")
	g := b.Add(t2, t1, tag+".g")
	return pointVals{
		X:  b.Mul(ta, f, tag+".X"),
		Y:  b.Mul(g, tb, tag+".Y"),
		Z:  b.Mul(f, g, tag+".Z"),
		Ta: ta,
		Tb: tb,
	}
}

// addCorr records the constant-structure parity correction: P + c where
// c is -P0 or O selected by the correction flag (digit -1).
func (b *smBuilder) addCorr(p pointVals, tag string) pointVals {
	t0 := b.Mul(p.Ta, p.Tb, tag+".T1")
	t2dRaw := b.CorrRead(CoordT2d)
	t2ds := b.DynSign(t2dRaw, -1, tag+".signsel")
	t1 := b.Mul(t0, t2ds, tag+".t1")
	t2 := b.Mul(p.Z, b.CorrRead(CoordZ2), tag+".t2")
	xy := b.Add(p.X, p.Y, tag+".x+y")
	yx := b.Sub(p.Y, p.X, tag+".y-x")
	t3 := b.Mul(xy, b.CorrRead(CoordXplusY), tag+".t3")
	t4 := b.Mul(yx, b.CorrRead(CoordYminusX), tag+".t4")
	ta := b.Sub(t3, t4, tag+".ta")
	tb := b.Add(t3, t4, tag+".tb")
	f := b.Sub(t2, t1, tag+".f")
	g := b.Add(t2, t1, tag+".g")
	return pointVals{
		X:  b.Mul(ta, f, tag+".X"),
		Y:  b.Mul(g, tb, tag+".Y"),
		Z:  b.Mul(f, g, tag+".Z"),
		Ta: ta,
		Tb: tb,
	}
}

// toCached records the R1 -> cached conversion (2 mults + 3 adds).
func (b *smBuilder) toCached(p pointVals, tag string) cachedVals {
	t := b.Mul(p.Ta, p.Tb, tag+".T")
	return cachedVals{
		XpY: b.Add(p.X, p.Y, tag+".x+y"),
		YmX: b.Sub(p.Y, p.X, tag+".y-x"),
		Z2:  b.Add(p.Z, p.Z, tag+".2z"),
		T2d: b.Mul(t, b.d2, tag+".2dt"),
	}
}

// invert records the GF(p^2) inversion z^-1 = conj(z) / norm(z), with
// the GF(p) Fermat inversion of the (real) norm run on the GF(p^2)
// multiplier. Mirrors fp.Inv's addition chain.
func (b *smBuilder) invert(z Val, tag string) Val {
	cz := b.Conj(z, tag+".conj")
	n := b.Mul(z, cz, tag+".norm") // (a^2+b^2) + 0i
	// Fermat chain for n^(p-2), p-2 = 2^127-3 (see fp.Inv).
	sqrN := func(x Val, k int, t string) Val {
		for i := 0; i < k; i++ {
			x = b.Sqr(x, fmt.Sprintf("%s.%s.s%d", tag, t, i))
		}
		return x
	}
	t1 := b.Sqr(n, tag+".c0")
	t1 = b.Mul(t1, n, tag+".c1") // n^3
	t2 := sqrN(t1, 2, "t2")
	t2 = b.Mul(t2, t1, tag+".c2") // n^(2^4-1)
	t3 := sqrN(t2, 4, "t3")
	t3 = b.Mul(t3, t2, tag+".c3") // 2^8-1
	t4 := sqrN(t3, 8, "t4")
	t4 = b.Mul(t4, t3, tag+".c4") // 2^16-1
	t5 := sqrN(t4, 16, "t5")
	t5 = b.Mul(t5, t4, tag+".c5") // 2^32-1
	t6 := sqrN(t5, 32, "t6")
	t6 = b.Mul(t6, t5, tag+".c6") // 2^64-1
	t7 := sqrN(t6, 61, "t7")
	t7 = b.Mul(t7, sqrN(t5, 29, "t5b"), tag+".c7")
	t7 = b.Mul(t7, sqrN(t4, 13, "t4b"), tag+".c8")
	t7 = b.Mul(t7, sqrN(t3, 5, "t3b"), tag+".c9")
	t7 = b.Mul(t7, sqrN(t2, 1, "t2b"), tag+".c10") // n^(2^125-2)
	r := sqrN(t7, 2, "r")
	r = b.Mul(r, t1, tag+".c11")                  // n^(2^127-5)
	r = b.Mul(r, b.Sqr(n, tag+".n2"), tag+".c12") // n^(2^127-3) = n^-1
	return b.Mul(cz, r, tag+".zinv")
}

// ScalarMultTrace is the result of recording a full scalar
// multiplication.
type ScalarMultTrace struct {
	Graph *Graph
	// XOut, YOut are the value IDs of the affine result.
	XOut, YOut int
	// Sections records op-count boundaries for profiling/reporting:
	// [multibase, tablebuild, mainloop, correction+normalize].
	Sections map[string][2]int // name -> [firstOp, lastOp)
}

// BuildScalarMult records the complete SM of Algorithm 1 for base point p
// and scalar k: multibase doublings, table build, recoded main loop,
// parity correction, and final normalization to affine coordinates.
func BuildScalarMult(k scalar.Scalar, p curve.Affine) (*ScalarMultTrace, error) {
	b := newAlgorithm1Builder(k)
	px := b.Input("P.x", p.X)
	py := b.Input("P.y", p.Y)

	// Step 1 (substituted): multibase Q_j = [2^64]Q_{j-1} by doubling.
	var bases [4]pointVals
	b.section("multibase", func() {
		bases[0] = pointVals{X: px, Y: py, Z: b.one, Ta: px, Tb: py}
		q := bases[0]
		for j := 1; j < 4; j++ {
			for i := 0; i < 64; i++ {
				q = b.double(q, fmt.Sprintf("mb%d.%d", j, i))
			}
			bases[j] = q
		}
	})
	return b.algorithm1(bases)
}

// BuildScalarMultWithBases records the SM trace with the three auxiliary
// base points supplied as inputs instead of being computed by doublings:
// the workload shape of the paper's actual Algorithm 1, where step 1
// applies the phi/psi endomorphisms (our documented substitution computes
// the same points externally; the processor-level cycle count for step 1
// is modelled separately, see core.EndoStepCycles).
func BuildScalarMultWithBases(k scalar.Scalar, bases [4]curve.Affine) (*ScalarMultTrace, error) {
	b := newAlgorithm1Builder(k)
	var pts [4]pointVals
	for j := range pts {
		x := b.Input(fmt.Sprintf("P%d.x", j), bases[j].X)
		y := b.Input(fmt.Sprintf("P%d.y", j), bases[j].Y)
		pts[j] = pointVals{X: x, Y: y, Z: b.one, Ta: x, Tb: y}
	}
	return b.algorithm1(pts)
}

// newAlgorithm1Builder starts an Algorithm 1 trace: k decomposed and
// recoded, and the 2d constant of the table build.
func newAlgorithm1Builder(k scalar.Scalar) *smBuilder {
	dec := scalar.Decompose(k)
	b := newSMBuilder(scalar.Recode(dec), dec.Corrected)
	b.d2 = b.Const("2d", curve.D2())
	return b
}

// algorithm1 records Algorithm 1 from step 2 on, given step 1's four
// points: the 8-entry table build, the recoded double-and-add main loop
// and the finalize section.
func (b *smBuilder) algorithm1(bases [4]pointVals) (*ScalarMultTrace, error) {
	// Step 2: table build.
	b.section("tablebuild", func() {
		c1 := b.toCached(bases[1], "cQ1")
		c2 := b.toCached(bases[2], "cQ2")
		c3 := b.toCached(bases[3], "cQ3")
		var pts [8]pointVals
		pts[0] = bases[0]
		pts[1] = b.addCached(pts[0], c1, "tb1")
		pts[2] = b.addCached(pts[0], c2, "tb2")
		pts[3] = b.addCached(pts[1], c2, "tb3")
		pts[4] = b.addCached(pts[0], c3, "tb4")
		pts[5] = b.addCached(pts[1], c3, "tb5")
		pts[6] = b.addCached(pts[2], c3, "tb6")
		pts[7] = b.addCached(pts[3], c3, "tb7")
		var slots [8][4]Val
		for u := 0; u < 8; u++ {
			c := b.toCached(pts[u], fmt.Sprintf("T%d", u))
			slots[u] = [4]Val{c.XpY, c.YmX, c.Z2, c.T2d}
		}
		b.RegisterTable(slots)
	})

	// Steps 6-10: main loop.
	var acc pointVals
	b.section("mainloop", func() {
		acc = b.addTable(b.identity(), scalar.Digits-1, "init")
		for i := scalar.Digits - 2; i >= 0; i-- {
			acc = b.double(acc, fmt.Sprintf("dbl%d", i))
			acc = b.addTable(acc, i, fmt.Sprintf("add%d", i))
		}
	})
	return b.finalize(acc)
}

// finalize records the parity correction and the normalization of acc
// to the affine outputs x, y, and returns the checked trace.
func (b *smBuilder) finalize(acc pointVals) (*ScalarMultTrace, error) {
	var x, y Val
	b.section("finalize", func() {
		acc = b.addCorr(acc, "corr")
		zinv := b.invert(acc.Z, "inv")
		x = b.Mul(acc.X, zinv, "out.x")
		y = b.Mul(acc.Y, zinv, "out.y")
	})
	b.Output("x", x)
	b.Output("y", y)

	g := b.Graph()
	if err := g.CheckConsistency(); err != nil {
		return nil, err
	}
	return &ScalarMultTrace{Graph: g, XOut: x.ID(), YOut: y.ID(), Sections: b.sections}, nil
}

// BuildDblAdd records one standalone double-and-add loop iteration (the
// paper's Fig. 2(b) / Table I block): inputs are the accumulator
// coordinates and an 8-entry table; the block performs DBL then
// ADD-with-table at digit position 0. Used for the Table I experiment and
// scheduler ablations.
func BuildDblAdd(k scalar.Scalar, acc curve.Point, table [8]curve.Cached) (*ScalarMultTrace, error) {
	bb := NewBuilder()
	dec := scalar.Decompose(k)
	rec := scalar.Recode(dec)
	bb.SetScalar(rec, dec.Corrected)

	b := &smBuilder{Builder: bb}
	b.Zero()

	p := pointVals{
		X:  b.Input("Q.x", acc.X),
		Y:  b.Input("Q.y", acc.Y),
		Z:  b.Input("Q.z", acc.Z),
		Ta: b.Input("Q.ta", acc.Ta),
		Tb: b.Input("Q.tb", acc.Tb),
	}
	var slots [8][4]Val
	for u := 0; u < 8; u++ {
		slots[u] = [4]Val{
			b.Input(fmt.Sprintf("T%d.x+y", u), table[u].XplusY),
			b.Input(fmt.Sprintf("T%d.y-x", u), table[u].YminusX),
			b.Input(fmt.Sprintf("T%d.2z", u), table[u].Z2),
			b.Input(fmt.Sprintf("T%d.2dt", u), table[u].T2d),
		}
	}
	b.RegisterTable(slots)

	q := b.double(p, "dbl")
	q = b.addTable(q, 0, "add")

	b.Output("x", q.X)
	b.Output("y", q.Y)
	b.Output("z", q.Z)
	b.Output("ta", q.Ta)
	b.Output("tb", q.Tb)

	g := b.Graph()
	if err := g.CheckConsistency(); err != nil {
		return nil, err
	}
	return &ScalarMultTrace{Graph: g, XOut: g.Outputs["x"], YOut: g.Outputs["y"]}, nil
}
