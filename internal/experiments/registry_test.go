package experiments

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The registry is what cmd/mpqbench dispatches on and prints as usage:
// unique names in the paper's order, every printed name resolves, "all"
// is the whole list in that order, and a typo is answered with the list.
func TestRegistry(t *testing.T) {
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "table1", "speedups", "workloads", "stragglers", "regret", "all"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want[:len(want)-1] {
		sel, err := Select(name)
		if err != nil || len(sel) != 1 || sel[0].Name != name || sel[0].Run == nil {
			t.Fatalf("Select(%q) = %v, %v", name, sel, err)
		}
	}
	all, err := Select("all")
	if err != nil || len(all) != len(want)-1 {
		t.Fatalf("Select(all) = %d experiments, %v", len(all), err)
	}
	for i, e := range all {
		if e.Name != want[i] {
			t.Fatalf("all[%d] = %q, want %q", i, e.Name, want[i])
		}
	}
	_, err = Select("fig9")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}

// A registered experiment renders what its exported entry measures.
func TestRegistryRunsFig3(t *testing.T) {
	sel, err := Select("fig3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tiny()
	cfg.Queries = 2
	tables, err := sel[0].Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	panels, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := Fig3Tables(panels); !reflect.DeepEqual(tables, want) {
		t.Fatalf("registry fig3 rendered %d tables, want the %d of Fig3Tables", len(tables), len(want))
	}
}
