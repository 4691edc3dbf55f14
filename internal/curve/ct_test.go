package curve

import (
	"testing"

	"repro/internal/fp"
)

func TestCSelectAndCSwap(t *testing.T) {
	a := fp.New(123)
	b := fp.New(456)
	if !fp.CSelect(1, a, b).Equal(a) || !fp.CSelect(0, a, b).Equal(b) {
		t.Fatal("CSelect wrong")
	}
	x, y := a, b
	fp.CSwap(0, &x, &y)
	if !x.Equal(a) || !y.Equal(b) {
		t.Fatal("CSwap(0) swapped")
	}
	fp.CSwap(1, &x, &y)
	if !x.Equal(b) || !y.Equal(a) {
		t.Fatal("CSwap(1) did not swap")
	}
	if fp.CTEq(a, b) != 0 || fp.CTEq(a, a) != 1 {
		t.Fatal("CTEq wrong")
	}
}
