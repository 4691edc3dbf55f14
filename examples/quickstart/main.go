// Quickstart: the FourQ library in six steps -- key generation, scalar
// multiplication (functional and on the cycle-accurate ASIC model),
// signing and verification. It exits non-zero if any check fails.
package main

import (
	"crypto/rand"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/scalar"
	"repro/internal/schnorrq"
)

func main() {
	failed := false
	check := func(label string, ok bool) {
		fmt.Println(label, ok)
		failed = failed || !ok
	}

	// 1. A random scalar and the classic double-and-add reference.
	k, err := scalar.Random(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	ref := curve.ScalarMultBinary(k, curve.Generator())

	// 2. The paper's Algorithm 1: decomposed, table-driven scalar mult.
	fast := curve.ScalarMult(k, curve.Generator())
	check("Algorithm 1 matches double-and-add:", fast.Equal(ref))

	// 3. Point encoding round trip.
	enc := fast.Bytes()
	dec, err := curve.FromBytes(enc[:])
	if err != nil {
		log.Fatal(err)
	}
	check("compressed encoding round-trips:   ", dec.Equal(fast))

	// 4. The same multiplication on the modelled ASIC.
	proc, err := core.New(core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	hw, stats, err := proc.ScalarMult(k)
	if err != nil {
		log.Fatal(err)
	}
	want := fast.Affine()
	check("cycle-accurate RTL model agrees:   ", hw.X.Equal(want.X) && hw.Y.Equal(want.Y))
	fmt.Printf("  (%d cycles, %d multiplications issued)\n", stats.Cycles, stats.MulIssues)

	// 5. SchnorrQ signatures over FourQ.
	priv, err := schnorrq.GenerateKey(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	msg := []byte("hello, FourQ")
	sig := priv.Sign(msg)
	check("signature verifies:                ", schnorrq.Verify(&priv.Public, msg, sig[:]))

	// 6. What the silicon would do.
	m, err := proc.PowerModel()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("modelled chip @1.2V: %.1f us and %.2f uJ per scalar multiplication\n",
		m.Latency(1.2)*1e6, m.EnergyPerSM(1.2)*1e6)

	if failed {
		log.Fatal("a check failed")
	}
}
