package platform

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// drillSealGolden is the SHA-256 over every session seal of the three
// golden drills (goldenDrillSeals), concatenated in drill order. The other
// drill tests compare drills with each other, so a change that shifted
// every seal the same way would pass them all; this digest would not.
// Rotate it only with a deliberate change to the recording bytes.
const drillSealGolden = "735c1ec6c91260971f7fe6d807e7f85e5e1efe7d7f3333cdba6ddc5bbbea2d7b"

func TestDrillSealGolden(t *testing.T) {
	h := sha256.New()
	for _, d := range goldenDrillSeals(t) {
		dh := sha256.New()
		for _, s := range d.seals {
			h.Write(s[:])
			dh.Write(s[:])
		}
		t.Logf("%-8s %3d seals  sha256 %x", d.name, len(d.seals), dh.Sum(nil))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != drillSealGolden {
		t.Fatalf("drill seal digest %s, golden %s", got, drillSealGolden)
	}
}
