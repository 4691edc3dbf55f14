package curve

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"repro/internal/fp2"
	"repro/internal/scalar"
)

func randScalar(r *mrand.Rand) scalar.Scalar {
	var s scalar.Scalar
	for i := range s {
		s[i] = r.Uint64()
	}
	return s
}

// randPoint returns a pseudo-random point in the prime-order subgroup.
func randPoint(r *mrand.Rand) Point {
	return ScalarMultBinary(randScalar(r), Generator())
}

func TestCurveConstantMatchesPaper(t *testing.T) {
	// The paper gives d in decimal; cross-check the hex limbs.
	re, _ := new(big.Int).SetString("4205857648805777768770", 10)
	im, _ := new(big.Int).SetString("125317048443780598345676279555970305165", 10)
	toBig := func(e interface{ Limbs() (uint64, uint64) }) *big.Int {
		lo, hi := e.Limbs()
		v := new(big.Int).SetUint64(hi)
		v.Lsh(v, 64)
		return v.Add(v, new(big.Int).SetUint64(lo))
	}
	if toBig(D().A).Cmp(re) != 0 || toBig(D().B).Cmp(im) != 0 {
		t.Fatal("curve constant d does not match the paper")
	}
}

func TestDIsNonSquare(t *testing.T) {
	// Completeness of the addition law requires d to be a non-square.
	if fp2.IsSquare(D()) {
		t.Fatal("d is a square in GF(p^2); addition law would not be complete")
	}
}

func TestGeneratorOnCurve(t *testing.T) {
	g := Generator()
	if !g.IsOnCurve() {
		t.Fatal("generator not on curve")
	}
	if !GeneratorAffine().IsOnCurveAffine() {
		t.Fatal("affine generator check failed")
	}
}

func TestGeneratorOrder(t *testing.T) {
	n := scalar.FromBig(scalar.Order())
	if !ScalarMultBinary(n, Generator()).IsIdentity() {
		t.Fatal("[N]G != O")
	}
	// G has exact order N: [N/small]G != O for the small prime factors...
	// N is prime, so it suffices that G != O.
	if Generator().IsIdentity() {
		t.Fatal("G is the identity")
	}
}

func TestIdentityProperties(t *testing.T) {
	o := Identity()
	if !o.IsOnCurve() || !o.IsIdentity() {
		t.Fatal("identity malformed")
	}
	if !Double(o).IsIdentity() {
		t.Fatal("2O != O")
	}
	if !Add(o, o).IsIdentity() {
		t.Fatal("O+O != O")
	}
	g := Generator()
	if !Add(g, o).Equal(g) || !Add(o, g).Equal(g) {
		t.Fatal("O is not neutral")
	}
	if !AddCached(g, IdentityCached()).Equal(g) {
		t.Fatal("cached identity is not neutral")
	}
}

func TestCompleteness(t *testing.T) {
	rng := mrand.New(mrand.NewSource(42))
	for i := 0; i < 10; i++ {
		p := randPoint(rng)
		// P + (-P) = O.
		if !Add(p, p.Neg()).IsIdentity() {
			t.Fatal("P + (-P) != O")
		}
		// P + P via the unified addition equals Double.
		if !Add(p, p).Equal(Double(p)) {
			t.Fatal("P+P != 2P (addition not complete)")
		}
		// Cached negation.
		if !AddCached(p, p.ToCached().Neg()).IsIdentity() {
			t.Fatal("cached negation wrong")
		}
	}
}

func TestGroupLaws(t *testing.T) {
	rng := mrand.New(mrand.NewSource(43))
	for i := 0; i < 8; i++ {
		p, q, r := randPoint(rng), randPoint(rng), randPoint(rng)
		if !Add(p, q).Equal(Add(q, p)) {
			t.Fatal("addition not commutative")
		}
		if !Add(Add(p, q), r).Equal(Add(p, Add(q, r))) {
			t.Fatal("addition not associative")
		}
		if !Add(p, q).IsOnCurve() || !Double(p).IsOnCurve() {
			t.Fatal("results leave the curve")
		}
		if !Sub(Add(p, q), q).Equal(p) {
			t.Fatal("subtraction inconsistent")
		}
	}
}

func TestNegation(t *testing.T) {
	rng := mrand.New(mrand.NewSource(44))
	p := randPoint(rng)
	if !p.Neg().IsOnCurve() {
		t.Fatal("-P off curve")
	}
	if !p.Neg().Neg().Equal(p) {
		t.Fatal("-(-P) != P")
	}
	a := p.Affine()
	na := p.Neg().Affine()
	if !na.Y.Equal(a.Y) || !na.X.Equal(fp2.Neg(a.X)) {
		t.Fatal("negation is not (x,y) -> (-x,y)")
	}
}

func TestScalarMultVariantsAgree(t *testing.T) {
	rng := mrand.New(mrand.NewSource(45))
	g := Generator()
	for i := 0; i < 6; i++ {
		k := randScalar(rng)
		ref := ScalarMultBinary(k, g)
		if !ScalarMult(k, g).Equal(ref) {
			t.Fatalf("decomposed SM (Algorithm 1) disagrees for k=%v", k)
		}
	}
	// Also on a non-generator base point.
	p := randPoint(rng)
	k := randScalar(rng)
	if !ScalarMult(k, p).Equal(ScalarMultBinary(k, p)) {
		t.Fatal("decomposed SM disagrees on random base")
	}
}

func TestScalarMultEdgeScalars(t *testing.T) {
	g := Generator()
	cases := []scalar.Scalar{
		{},           // 0
		{1},          // 1
		{2},          // 2
		{^uint64(0)}, // 2^64-1 (only a1)
		{0, 1},       // 2^64 (only a2)
		{0, 0, 1},    // 2^128
		{0, 0, 0, 1}, // 2^192
		{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}, // 2^256-1
		scalar.FromBig(scalar.Order()),                   // N -> O
	}
	for _, k := range cases {
		ref := ScalarMultBinary(k, g)
		got := ScalarMult(k, g)
		if !got.Equal(ref) {
			t.Fatalf("SM mismatch for k=%v", k)
		}
		if !got.IsOnCurve() {
			t.Fatalf("SM left the curve for k=%v", k)
		}
	}
	if !ScalarMult(scalar.Scalar{}, g).IsIdentity() {
		t.Fatal("[0]G != O")
	}
	if !ScalarMult(scalar.Scalar{1}, g).Equal(g) {
		t.Fatal("[1]G != G")
	}
}

func TestScalarMultDistributive(t *testing.T) {
	rng := mrand.New(mrand.NewSource(46))
	g := Generator()
	for i := 0; i < 4; i++ {
		a := scalar.ModN(randScalar(rng))
		b := scalar.ModN(randScalar(rng))
		sum := scalar.AddModN(a, b)
		lhs := ScalarMult(sum, g)
		rhs := Add(ScalarMult(a, g), ScalarMult(b, g))
		if !lhs.Equal(rhs) {
			t.Fatal("[a+b]G != [a]G + [b]G")
		}
	}
}

// TestBatchInvMatchesInv pins fp2.BatchInv (Montgomery's simultaneous
// inversion) on projective Z coordinates, the inputs it exists for.
func TestBatchInvMatchesInv(t *testing.T) {
	rng := mrand.New(mrand.NewSource(111))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(9)
		xs := make([]fp2.Element, n)
		want := make([]fp2.Element, n)
		for i := range xs {
			p := randPoint(rng)
			xs[i] = p.Z
			want[i] = fp2.Inv(p.Z)
		}
		if trial%3 == 0 && n > 2 {
			xs[1] = fp2.Zero()
			want[1] = fp2.Zero()
		}
		fp2.BatchInv(xs)
		for i := range xs {
			if !xs[i].Equal(want[i]) {
				t.Fatalf("trial %d entry %d: batch inverse differs", trial, i)
			}
		}
	}
	// Empty batch is a no-op.
	fp2.BatchInv(nil)
}

func TestDoubleScalarMult(t *testing.T) {
	rng := mrand.New(mrand.NewSource(47))
	g := Generator()
	p := randPoint(rng)
	for i := 0; i < 4; i++ {
		k, l := randScalar(rng), randScalar(rng)
		want := Add(ScalarMultBinary(k, g), ScalarMultBinary(l, p))
		if !DoubleScalarMult(k, g, l, p).Equal(want) {
			t.Fatal("DoubleScalarMult (Shamir) mismatch")
		}
	}
	// Edge cases: zero scalars and equal points.
	zero := scalar.Scalar{}
	k := randScalar(rng)
	if !DoubleScalarMult(zero, g, k, p).Equal(ScalarMultBinary(k, p)) {
		t.Fatal("[0]G + [k]P wrong")
	}
	if !DoubleScalarMult(k, g, zero, p).Equal(ScalarMultBinary(k, g)) {
		t.Fatal("[k]G + [0]P wrong")
	}
	if !DoubleScalarMult(zero, g, zero, p).IsIdentity() {
		t.Fatal("[0]G + [0]P != O")
	}
	want := ScalarMultBinary(scalar.AddModN(scalar.ModN(k), scalar.ModN(k)), g)
	if !DoubleScalarMult(scalar.ModN(k), g, scalar.ModN(k), g).Equal(want) {
		t.Fatal("[k]G + [k]G wrong (p == q case)")
	}
}

func BenchmarkDoubleScalarMultShamir(b *testing.B) {
	rng := mrand.New(mrand.NewSource(1))
	g := Generator()
	p := ScalarMultBinary(randScalar(rng), g)
	k, l := randScalar(rng), randScalar(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptSink = DoubleScalarMult(k, g, l, p)
	}
}

func TestClearCofactor(t *testing.T) {
	g := Generator()
	want := ScalarMultBinary(scalar.FromUint64(392), g)
	if !ClearCofactor(g).Equal(want) {
		t.Fatal("ClearCofactor != [392]P")
	}
}

func TestMultiBaseAndTable(t *testing.T) {
	g := Generator()
	mb := NewMultiBase(g)
	two64 := scalar.Scalar{0, 1}
	if !mb.P[1].Equal(ScalarMultBinary(two64, g)) {
		t.Fatal("multibase Q1 != [2^64]P")
	}
	table := BuildTable(mb)
	// T[5] = P + Q1 + Q3.
	want := Add(Add(mb.P[0], mb.P[1]), mb.P[3])
	got := AddCached(Identity(), table[5])
	if !got.Equal(want) {
		t.Fatal("table entry T[5] wrong")
	}
	// All entries on curve.
	for i, c := range table {
		p := AddCached(Identity(), c)
		if !p.IsOnCurve() {
			t.Fatalf("table entry %d off curve", i)
		}
	}
}

func TestEncodingRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(48))
	for i := 0; i < 10; i++ {
		p := randPoint(rng)
		b := p.Bytes()
		q, err := FromBytes(b[:])
		if err != nil {
			t.Fatal(err)
		}
		if !q.Equal(p) {
			t.Fatal("decode(encode(P)) != P")
		}
	}
	// Identity round-trips.
	b := Identity().Bytes()
	q, err := FromBytes(b[:])
	if err != nil || !q.IsIdentity() {
		t.Fatal("identity encoding broken")
	}
}

func TestFromBytesRejectsGarbage(t *testing.T) {
	if _, err := FromBytes(make([]byte, 31)); err == nil {
		t.Error("short encoding accepted")
	}
	bad := make([]byte, 32)
	for i := range bad {
		bad[i] = 0xFF
	}
	if _, err := FromBytes(bad); err == nil {
		t.Error("non-canonical field encoding accepted")
	}
	// A y value whose x^2 is non-square: search deterministically.
	rng := mrand.New(mrand.NewSource(49))
	rejected := false
	for i := 0; i < 64 && !rejected; i++ {
		var b [32]byte
		rng.Read(b[:])
		b[15] &= 0x7F // keep fp limbs canonical
		b[31] &= 0x7F
		if _, err := FromBytes(b[:]); err != nil {
			rejected = true
		}
	}
	if !rejected {
		t.Error("no random encoding rejected; decompression likely unsound")
	}
}

func TestInSubgroup(t *testing.T) {
	if !InSubgroup(Generator()) {
		t.Fatal("G not in subgroup")
	}
	rng := mrand.New(mrand.NewSource(50))
	if !InSubgroup(randPoint(rng)) {
		t.Fatal("[r]G not in subgroup")
	}
}

func BenchmarkScalarMultBinary(b *testing.B) {
	rng := mrand.New(mrand.NewSource(1))
	k := randScalar(rng)
	g := Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptSink = ScalarMultBinary(k, g)
	}
}

func BenchmarkScalarMultDecomposed(b *testing.B) {
	rng := mrand.New(mrand.NewSource(1))
	k := randScalar(rng)
	g := Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptSink = ScalarMult(k, g)
	}
}

func BenchmarkDouble(b *testing.B) {
	g := Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = Double(g)
	}
	ptSink = g
}

func BenchmarkAddCached(b *testing.B) {
	g := Generator()
	c := Double(g).ToCached()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = AddCached(g, c)
	}
	ptSink = g
}

var ptSink Point
