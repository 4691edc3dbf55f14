package curve

import (
	"bufio"
	"encoding/hex"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scalar"
)

// TestKnownAnswerVectors pins the scalar-multiplication results against
// the checked-in vector file, guarding all future refactors of the
// field, curve and scalar layers against silent regressions.
func TestKnownAnswerVectors(t *testing.T) {
	f, err := os.Open("testdata/smul_kat.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	vectors := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			t.Fatalf("malformed KAT line: %q", line)
		}
		var k scalar.Scalar
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseUint(fields[i], 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			k[i] = v
		}
		want, err := hex.DecodeString(fields[4])
		if err != nil || len(want) != Size {
			t.Fatalf("bad encoding in KAT line %q", line)
		}
		got := ScalarMult(k, Generator()).Bytes()
		if string(got[:]) != string(want) {
			t.Fatalf("KAT mismatch for k=%v:\n got %x\nwant %x", k, got, want)
		}
		// The constant-time generator table must agree too.
		if alt := ScalarBaseMult(k).Bytes(); alt != got {
			t.Fatalf("generator-table walk diverges for k=%v", k)
		}
		vectors++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if vectors < 40 {
		t.Fatalf("only %d vectors exercised", vectors)
	}
}
