package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// referenceSeed is the seed every published number uses and the only
// one with pinned answers. A claim must also hold on a second seed.
const referenceSeed = 1

// pin is one pinned answer of the reference seed.
type pin struct {
	Cost        float64 `json:"cost"`
	Fingerprint string  `json:"fingerprint"`
}

// golden maps workload → job name → pinned answer.
type golden map[string]map[string]pin

//go:embed testdata/golden.json
var goldenJSON []byte

// pinnedWorkloads have few, large jobs; serve-zipf8's 256 queries are
// checked against the serial reference only.
var pinnedWorkloads = []string{wlSerial, wlMPQ8, wlTCP}

// loadGolden returns the pins that apply: none unless the run uses the
// reference seed at the reference sizes.
func loadGolden(seed int64, sz sizes) (golden, error) {
	if seed != referenceSeed || sz != refSizes {
		return nil, nil
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// updateGolden recomputes the pins from the reference engines and the
// measured engines and rewrites testdata/golden.json. Run it only when
// a change is meant to alter plans.
func updateGolden(ctx context.Context) error {
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	defer cal.close()
	g := golden{}
	for _, name := range pinnedWorkloads {
		def, _ := workloadByName(name)
		in, err := setUp(ctx, cal, def, referenceSeed, refSizes, nil)
		if err != nil {
			return err
		}
		if err := in.close(); err != nil {
			return err
		}
		if in.failed > 0 {
			return fmt.Errorf("%s: refusing to pin failing answers: %v", name, in.failures)
		}
		g[name] = map[string]pin{}
		for _, j := range in.jobs {
			g[name][j.name] = pin{Cost: j.refCost, Fingerprint: j.fp}
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644)
}
