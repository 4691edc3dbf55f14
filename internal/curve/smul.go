package curve

import (
	"repro/internal/scalar"
)

// This file implements scalar multiplication two ways:
//
//   - ScalarMultBinary: the classical double-and-add of Section II of the
//     paper (the "general and fast algorithm" baseline).
//   - ScalarMult: the paper's Algorithm 1 -- four-way decomposition,
//     8-entry table in cached coordinates, GLV-SAC recoding and a
//     64-iteration DBL+ADD main loop. This is the algorithm whose
//     execution trace the ASIC flow schedules.

// ScalarMultBinary computes [k]p by the binary double-and-add method,
// scanning k from its most significant bit. Used as the correctness
// reference and the Section II baseline.
func ScalarMultBinary(k scalar.Scalar, p Point) Point {
	q := Identity()
	c := p.ToCached()
	for i := k.BitLen() - 1; i >= 0; i-- {
		q = Double(q)
		if k.Bit(i) == 1 {
			q = AddCached(q, c)
		}
	}
	return q
}

// MultiBase holds the four base points of the decomposition,
// {P, [2^64]P, [2^128]P, [2^192]P}, standing in for
// {P, phi(P), psi(P), psi(phi(P))} of the paper (see DESIGN.md).
type MultiBase struct {
	P [4]Point
}

// NewMultiBase computes the three auxiliary bases with 192 doublings
// (step 1 of Algorithm 1 under the documented endomorphism substitution).
func NewMultiBase(p Point) MultiBase {
	var mb MultiBase
	mb.P[0] = p
	q := p
	for j := 1; j < 4; j++ {
		for i := 0; i < 64; i++ {
			q = Double(q)
		}
		mb.P[j] = q
	}
	return mb
}

// BuildTable computes the 8-entry table of step 2 of Algorithm 1:
// T[u] = P + u0*Q1 + u1*Q2 + u2*Q3 for u = (u2 u1 u0)_2, returned in
// cached (X+Y, Y-X, 2Z, 2dT) coordinates. Seven point additions.
func BuildTable(mb MultiBase) [8]Cached {
	var pts [8]Point
	pts[0] = mb.P[0]
	q1 := mb.P[1].ToCached()
	q2 := mb.P[2].ToCached()
	q3 := mb.P[3].ToCached()
	pts[1] = AddCached(pts[0], q1)
	pts[2] = AddCached(pts[0], q2)
	pts[3] = AddCached(pts[1], q2)
	pts[4] = AddCached(pts[0], q3)
	pts[5] = AddCached(pts[1], q3)
	pts[6] = AddCached(pts[2], q3)
	pts[7] = AddCached(pts[3], q3)
	var t [8]Cached
	for i := range pts {
		t[i] = pts[i].ToCached()
	}
	return t
}

// ScalarMult computes [k]p by the paper's Algorithm 1 (with the
// documented 2^64-multiple decomposition): table build, GLV-SAC recoding
// and 64 iterations of DBL followed by a signed table addition, then a
// constant-structure parity correction.
func ScalarMult(k scalar.Scalar, p Point) Point {
	dec := scalar.Decompose(k)
	rec := scalar.Recode(dec)
	table := BuildTable(NewMultiBase(p))

	// Step 6: Q = s_64 * T[v_64], realized as O + s*T so every iteration
	// has the same instruction structure.
	q := AddCached(Identity(), table[rec.Index[scalar.Digits-1]].CondNeg(rec.Sign[scalar.Digits-1]))

	// Steps 7-10.
	for i := scalar.Digits - 2; i >= 0; i-- {
		q = Double(q)
		q = AddCached(q, table[rec.Index[i]].CondNeg(rec.Sign[i]))
	}

	// Parity correction: [k]P = [k+1]P - P when the decomposition
	// incremented a1. Performed unconditionally with a selected operand so
	// the operation count does not depend on the scalar.
	corr := IdentityCached()
	if dec.Corrected {
		corr = p.ToCached().Neg()
	}
	return AddCached(q, corr)
}

// DoubleScalarMult computes [k]p + [l]q (the signature-verification
// workload, step 4 of the verification procedure in Section II-A) by
// Strauss-Shamir interleaving: one shared doubling chain with a
// three-entry table {p, q, p+q}, roughly halving the cost of two
// independent multiplications.
func DoubleScalarMult(k scalar.Scalar, p Point, l scalar.Scalar, q Point) Point {
	cp := p.ToCached()
	cq := q.ToCached()
	cpq := Add(p, q).ToCached()
	bits := k.BitLen()
	if lb := l.BitLen(); lb > bits {
		bits = lb
	}
	acc := Identity()
	for i := bits - 1; i >= 0; i-- {
		acc = Double(acc)
		kb, lb := k.Bit(i), l.Bit(i)
		switch {
		case kb == 1 && lb == 1:
			acc = AddCached(acc, cpq)
		case kb == 1:
			acc = AddCached(acc, cp)
		case lb == 1:
			acc = AddCached(acc, cq)
		}
	}
	return acc
}

// InSubgroup reports whether p lies in the prime-order subgroup,
// i.e. [N]p == O.
func InSubgroup(p Point) bool {
	n := scalar.FromBig(scalar.Order())
	return ScalarMult(n, p).IsIdentity()
}
