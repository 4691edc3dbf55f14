package trace

import (
	"fmt"

	"repro/internal/curve"
	"repro/internal/fp2"
	"repro/internal/scalar"
)

// This file records the fixed-base comb scalar multiplication: the
// signing-side microprogram. Where the variable-base trace (sm.go)
// interleaves 64 doublings with 65 table additions — a dependence chain
// PR 9's solver work showed is depth-bound — the comb spends
// precomputed ROM instead: scalar.FixedBaseDigits cached additions
// against per-window odd-multiple tables, and no doublings at all. The
// window tables are program constants (the base point is fixed), so
// windows 1.. live in an operand ROM with its own read port (SrcROM)
// and only window 0 occupies the register-file table region — its first
// entry, [1]P, doubling as the parity-correction operand exactly like
// the variable-base program's T[0].

// addROM records P + s_w*ROM_w[v_w]: the comb's per-window addition,
// identical in shape to addTable (8 multiplier ops + 7 adder ops
// including the dynamic sign select) but sourcing the cached point from
// ROM window w, indexed at runtime by recoded digit w.
func (b *smBuilder) addROM(p pointVals, window int, tag string) pointVals {
	t0 := b.Mul(p.Ta, p.Tb, tag+".T1")
	t2dRaw := b.ROMRead(CoordT2d, window)
	t2ds := b.DynSign(t2dRaw, window, tag+".signsel")
	t1 := b.Mul(t0, t2ds, tag+".t1")
	t2 := b.Mul(p.Z, b.ROMRead(CoordZ2, window), tag+".t2")
	xy := b.Add(p.X, p.Y, tag+".x+y")
	yx := b.Sub(p.Y, p.X, tag+".y-x")
	t3 := b.Mul(xy, b.ROMRead(CoordXplusY, window), tag+".t3")
	t4 := b.Mul(yx, b.ROMRead(CoordYminusX, window), tag+".t4")
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

// BuildFixedBaseScalarMult records the comb scalar multiplication [k]P
// for the fixed base p: signed odd radix-16 recoding (k reduced mod N,
// forced odd with the parity correction), one ROM addition per window
// from the top digit down to window 1, the window-0 addition against
// the register-file table, the correction add, and normalization to
// affine coordinates. The program has no external inputs — everything
// it consumes is constants and ROM — so one compiled instance serves
// every scalar.
func BuildFixedBaseScalarMult(k scalar.Scalar, p curve.Affine) (*ScalarMultTrace, error) {
	b := newSMBuilder(scalar.RecodeFixedBase(k))

	windows := curve.FixedBaseOddMultiples(curve.FromAffine(p), scalar.FixedBaseDigits)

	// Window 0: register-file table. Slot u holds [(2u+1)]P cached, so
	// slot 0 is [1]P — the operand the correction read negates, matching
	// the variable-base program's layout.
	var slots [8][4]Val
	for u := 0; u < 8; u++ {
		c := windows[0][u]
		slots[u] = [4]Val{
			b.Const(fmt.Sprintf("fbT%d.x+y", u), c.XplusY),
			b.Const(fmt.Sprintf("fbT%d.y-x", u), c.YminusX),
			b.Const(fmt.Sprintf("fbT%d.2z", u), c.Z2),
			b.Const(fmt.Sprintf("fbT%d.2dt", u), c.T2d),
		}
	}
	b.RegisterTable(slots)

	// Windows 1..FixedBaseDigits-1: operand ROM.
	rom := make([][8][4]fp2.Element, scalar.FixedBaseDigits-1)
	for w := 1; w < scalar.FixedBaseDigits; w++ {
		for u := 0; u < 8; u++ {
			c := windows[w][u]
			rom[w-1][u] = [4]fp2.Element{c.XplusY, c.YminusX, c.Z2, c.T2d}
		}
	}
	b.RegisterROM(rom)

	// Comb chain: top window down to window 1 from ROM, window 0 from
	// the register table. Digit order is irrelevant for correctness (the
	// terms commute) but walking top-down keeps labels aligned with the
	// recoding's positional weights.
	var acc pointVals
	b.section("mainloop", func() {
		acc = b.addROM(b.identity(), scalar.FixedBaseDigits-1, "init")
		for w := scalar.FixedBaseDigits - 2; w >= 1; w-- {
			acc = b.addROM(acc, w, fmt.Sprintf("add%d", w))
		}
		acc = b.addTable(acc, 0, "add0")
	})
	// Parity correction + normalization, as in the variable-base trace.
	return b.finalize(acc)
}
