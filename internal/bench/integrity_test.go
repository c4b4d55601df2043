package bench

import (
	"strings"
	"testing"

	"ib12x/internal/adi"
	"ib12x/internal/core"
)

// TestIntegrityOverheadTable runs the generator at quick scale; the
// audit-equals-off invariant is enforced inside it, so a clean return
// already certifies it.
func TestIntegrityOverheadTable(t *testing.T) {
	tbl, err := IntegrityOverheadTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Format()
	for _, want := range []string{"EPC 4QP off", "EPC 4QP audit", "EPC 4QP verify", "original (1 QP/port) verify"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing row %q:\n%s", want, out)
		}
	}
}

// TestIntegrityVerifyCostsBandwidth pins the sign of the overhead: armed
// verification charges two checksum passes per payload, so large-message
// bandwidth must drop measurably below the unprotected run.
func TestIntegrityVerifyCostsBandwidth(t *testing.T) {
	sizes := []int{1 << 20}
	off, err := UniBandwidth(Setup{QPs: 4, Policy: core.EPC}, sizes, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	on, err := UniBandwidth(Setup{QPs: 4, Policy: core.EPC, Integrity: adi.IntegrityVerify}, sizes, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if on[0] >= off[0] {
		t.Errorf("verify-armed bandwidth %.1f MB/s not below unprotected %.1f MB/s", on[0], off[0])
	}
}
