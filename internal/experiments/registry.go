package experiments

import (
	"fmt"
	"strings"
)

// Experiment is one named table or figure of the evaluation.
type Experiment struct {
	Name string
	Run  func(Config) ([]*Table, error)
}

// registry lists every experiment in the paper's order, the extensions
// beyond the paper last.
var registry = []Experiment{
	experiment("fig1", Fig1, PanelTables),
	experiment("fig2", Fig2, PanelTables),
	experiment("fig3", Fig3, Fig3Tables),
	experiment("fig4", Fig4, PanelTables),
	experiment("fig5", Fig5, PanelTables),
	experiment("table1", func(cfg Config) (*Table1Result, error) {
		return Table1(cfg, DefaultTable1Options(cfg.Full))
	}, one(Table1Table)),
	experiment("speedups", Speedups, one(SpeedupsTable)),
	experiment("workloads", Workloads, one(WorkloadsTable)),
	experiment("stragglers", Stragglers, one(StragglersTable)),
	experiment("regret", Regret, one(RegretTable)),
}

// experiment pairs a measuring function with its renderer.
func experiment[R any](name string, measure func(Config) (R, error), render func(R) []*Table) Experiment {
	return Experiment{Name: name, Run: func(cfg Config) ([]*Table, error) {
		r, err := measure(cfg)
		if err != nil {
			return nil, err
		}
		return render(r), nil
	}}
}

// one adapts a single-table renderer.
func one[R any](render func(R) *Table) func(R) []*Table {
	return func(r R) []*Table { return []*Table{render(r)} }
}

// Names returns what Select accepts: every experiment in run order,
// then "all".
func Names() []string {
	names := make([]string, 0, len(registry)+1)
	for _, e := range registry {
		names = append(names, e.Name)
	}
	return append(names, "all")
}

// Select returns the named experiment, or every experiment in order for
// "all".
func Select(name string) ([]Experiment, error) {
	if name == "all" {
		return registry, nil
	}
	for _, e := range registry {
		if e.Name == name {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
}
