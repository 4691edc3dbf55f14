package curve

import (
	"sync"

	"repro/internal/scalar"
)

// Fixed-base scalar multiplication: when the base point is known in
// advance (the generator, for signing), a windowed precomputed table
// turns the whole multiplication into ~63 cached additions with no
// doublings. This is the classic fixed-base optimization FourQ
// deployments use on the signing side: the generator's table serves
// every secret software [k]G (ScalarBaseMult), and
// FixedBaseOddMultiples feeds the comb microprogram's ROM.

// FixedBaseWindow is the window width in bits.
const FixedBaseWindow = 4

// fixedBaseWindows is the number of 4-bit windows in a 256-bit scalar.
const fixedBaseWindows = 256 / FixedBaseWindow

// FixedBaseTable holds [j * 2^(4i)]P for every window i and digit j.
type FixedBaseTable struct {
	// win[i][j-1] = [j * 2^(4i)]P in cached form, j in [1,15].
	win [fixedBaseWindows][15]Cached
}

// NewFixedBaseTable precomputes the table for base point p
// (one-time cost: 252 doublings + 64*14 additions).
func NewFixedBaseTable(p Point) *FixedBaseTable {
	t := &FixedBaseTable{}
	base := p
	for i := 0; i < fixedBaseWindows; i++ {
		c := base.ToCached()
		acc := base
		t.win[i][0] = c
		for j := 2; j <= 15; j++ {
			acc = AddCached(acc, c)
			t.win[i][j-1] = acc.ToCached()
		}
		if i+1 < fixedBaseWindows {
			for b := 0; b < FixedBaseWindow; b++ {
				base = Double(base)
			}
		}
	}
	return t
}

// ScalarMult computes [k]P using the precomputed table in constant
// time: exactly one cached addition per window, no doublings. Every
// window performs a masked scan of all 15 entries (selecting the
// cached identity for a zero digit, which the complete addition
// formula absorbs), so neither the memory addresses touched nor the
// operation sequence depend on k.
func (t *FixedBaseTable) ScalarMult(k scalar.Scalar) Point {
	acc := Identity()
	for i := 0; i < fixedBaseWindows; i++ {
		d := k[i/16] >> (uint(i%16) * 4) & 0xF
		acc = AddCached(acc, lookupFixedBaseCT(&t.win[i], d))
	}
	return acc
}

// generatorTable is the generator's fixed-base table (~123 KB). It is
// built on first use, so a process that never multiplies the generator
// in software pays nothing for it.
var generatorTable = sync.OnceValue(func() *FixedBaseTable {
	return NewFixedBaseTable(Generator())
})

// ScalarBaseMult computes [k]G on the generator's fixed-base table: the
// constant-time walk every secret software [k]G (key derivation,
// signing nonces, the engine's degraded path) goes through.
func ScalarBaseMult(k scalar.Scalar) Point {
	return generatorTable().ScalarMult(k)
}

// lookupFixedBaseCT selects win[d-1] for d in [1,15], or the cached
// identity for d == 0, scanning the whole window under masks so no
// secret-dependent address is formed (the masked selects of ct.go over
// the comb table's 15 entries plus the implicit zero entry).
func lookupFixedBaseCT(win *[15]Cached, d uint64) Cached {
	out := IdentityCached()
	for j := 1; j <= 15; j++ {
		// flag = 1 iff j == d, computed without branching.
		x := d ^ uint64(j)
		flag := uint64(1) ^ ((x | -x) >> 63)
		out = cselectCached(flag, win[j-1], out)
	}
	return out
}

// scalarMultVartime is the pre-hardening variable-time walk (branch on
// zero digits, index by digit value), kept as the differential
// reference for the constant-time path.
func (t *FixedBaseTable) scalarMultVartime(k scalar.Scalar) Point {
	acc := Identity()
	for i := 0; i < fixedBaseWindows; i++ {
		d := k[i/16] >> (uint(i%16) * 4) & 0xF
		if d != 0 {
			acc = AddCached(acc, t.win[i][d-1])
		}
	}
	return acc
}

// FixedBaseOddMultiples returns, for each of n signed radix-16 comb
// windows, the eight cached odd multiples [(2u+1)·16^w]P consumed by
// the fixed-base microprogram's signed-digit recoding
// (scalar.RecodeFixedBase): window 0 feeds the datapath's register-file
// table (its first entry, [1]P, doubles as the parity-correction
// operand), windows 1..n-1 become operand ROM.
func FixedBaseOddMultiples(p Point, n int) [][8]Cached {
	out := make([][8]Cached, n)
	base := p
	for w := 0; w < n; w++ {
		acc := base
		step := Double(base).ToCached()
		out[w][0] = acc.ToCached()
		for u := 1; u < 8; u++ {
			acc = AddCached(acc, step)
			out[w][u] = acc.ToCached()
		}
		if w+1 < n {
			base = Double(Double(Double(Double(base))))
		}
	}
	return out
}
