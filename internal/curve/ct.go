package curve

import (
	"repro/internal/fp"
	"repro/internal/fp2"
)

// Masked selects: the branch-free building blocks of the constant-time
// fixed-base walk (FixedBaseTable.ScalarMult), the software analogue of
// the security property the fixed-FSM hardware provides structurally.

// cselect2 is fp.CSelect lifted to GF(p^2).
func cselect2(flag uint64, a, b fp2.Element) fp2.Element {
	return fp2.Element{
		A: fp.CSelect(flag, a.A, b.A),
		B: fp.CSelect(flag, a.B, b.B),
	}
}

// cselectCached selects between two cached points.
func cselectCached(flag uint64, a, b Cached) Cached {
	return Cached{
		XplusY:  cselect2(flag, a.XplusY, b.XplusY),
		YminusX: cselect2(flag, a.YminusX, b.YminusX),
		Z2:      cselect2(flag, a.Z2, b.Z2),
		T2d:     cselect2(flag, a.T2d, b.T2d),
	}
}
