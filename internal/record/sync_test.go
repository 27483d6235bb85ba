package record

import (
	"fmt"
	"testing"

	"gpurelay/internal/gpumem"
)

// The structural fingerprint is hashed into checkpoints (metaFP), so its
// text is part of the checkpoint format: it must stay exactly the
// "%s:%x:%x;" rendering per region, page-table pseudo-regions included.
func TestFingerprintFormat(t *testing.T) {
	regions := []*gpumem.Region{
		{Name: "cmds", PA: 0, Size: 0},
		{Name: "weights", PA: 0x1234_5000, Size: 0xABCDEF},
		{Name: "pt@ffffffffffff000", PA: 0xFFFF_FFFF_FFFF_F000, Size: gpumem.PageSize},
		{Name: "", PA: 1, Size: 1 << 63},
	}
	want := ""
	for _, r := range regions {
		want += fmt.Sprintf("%s:%x:%x;", r.Name, r.PA, r.Size)
	}
	if got := fingerprint(regions); got != want {
		t.Fatalf("fingerprint = %q, want %q", got, want)
	}
	if got := fingerprint(nil); got != "" {
		t.Fatalf("empty fingerprint = %q", got)
	}
}
