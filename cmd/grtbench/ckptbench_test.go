package main

import (
	"strings"
	"testing"
)

// TestCheckCkptGates drives the checkpoint artifact's gates over synthetic
// rows: a capture ratio at the ceiling trips, a warm-start hit rate that
// does not beat cold trips, and passing rows pass.
func TestCheckCkptGates(t *testing.T) {
	pass := func() ckptArtifact {
		return ckptArtifact{
			Gate: 0.5,
			Captures: []ckptCaptureEntry{
				{Footprint: "mnist", Ratio: 0.3},
				{Footprint: "vgg16", Ratio: 0.25},
			},
			SpecWarm: specWarmEntry{ColdHitRate: 0.84, WarmHitRate: 0.93},
		}
	}
	cases := []struct {
		name string
		edit func(*ckptArtifact)
		want string // substring of the error; "" passes
	}{
		{"passing rows", func(*ckptArtifact) {}, ""},
		{"ratio at the ceiling", func(a *ckptArtifact) { a.Captures[1].Ratio = 0.5 }, "vgg16 epoch/whole capture ratio 0.500"},
		{"ratio over the ceiling", func(a *ckptArtifact) { a.Captures[0].Ratio = 0.9 }, "mnist"},
		{"no ceiling", func(a *ckptArtifact) { a.Gate, a.Captures[0].Ratio = 0, 2 }, ""},
		{"warm equals cold", func(a *ckptArtifact) { a.SpecWarm.WarmHitRate = 0.84 }, "does not beat cold"},
		{"warm below cold", func(a *ckptArtifact) { a.SpecWarm.WarmHitRate = 0.5 }, "does not beat cold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			art := pass()
			tc.edit(&art)
			err := checkCkptGates(art)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("gate tripped: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
