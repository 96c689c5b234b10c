package traffic

import (
	"reflect"
	"testing"

	"gonoc/internal/noctypes"
)

// TestTransRoleDefaults pins what a zero role field selects: window 2,
// 16-byte transactions, half reads; a negative read fraction is all
// writes, and set fields are kept.
func TestTransRoleDefaults(t *testing.T) {
	got := resolveRoles(TransConfig{Roles: []TransRole{
		{Master: "axi", Rate: 0.1},
		{Master: "ocp", Rate: 0.2, Window: 5, Bytes: 64, ReadFrac: -1},
		{Master: "ahb", Rate: 0.3, ReadFrac: 0.25},
	}})
	want := []TransRole{
		{Master: "axi", Rate: 0.1, Window: 2, Bytes: 16, ReadFrac: 0.5},
		{Master: "ocp", Rate: 0.2, Window: 5, Bytes: 64, ReadFrac: 0},
		{Master: "ahb", Rate: 0.3, Window: 2, Bytes: 16, ReadFrac: 0.25},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resolved roles:\n got  %+v\n want %+v", got, want)
	}
}

// TestTransRoleTargetsAndPriority drives a role-shaped run: a subset of
// masters, explicit address windows, and a priority override — and
// checks the run completes with traffic confined to the roles asked for.
func TestTransRoleTargetsAndPriority(t *testing.T) {
	tc := TransConfig{Seed: 5, Warmup: 100, Measure: 600, Drain: 8000,
		Roles: []TransRole{
			{Master: "axi", Rate: 0.25, Window: 4, Bytes: 32,
				Base: 0x1004_0000, Size: 0x4000},
			{Master: "ocp", Rate: 0.2, Window: 2, Bytes: 64,
				Priority: noctypes.PrioUrgent, PrioritySet: true,
				Base: 0x2004_0000, Size: 0x8000},
		}}
	res := RunTrans(tc)
	if len(res.PerMaster) != 2 {
		t.Fatalf("drove %d masters, want the 2 declared roles: %+v", len(res.PerMaster), res.PerMaster)
	}
	for _, m := range res.PerMaster {
		if m.Issued == 0 || m.Done == 0 {
			t.Fatalf("role %q issued nothing: %+v", m.Master, m)
		}
		if m.Errors != 0 {
			t.Fatalf("role %q saw %d protocol errors — target windows should decode cleanly", m.Master, m.Errors)
		}
	}
	if res.Incomplete != 0 {
		t.Fatalf("%d transactions stuck at drain cap", res.Incomplete)
	}
}
