package main

import "testing"

// TestWorkloadsSmoke runs all four workloads end to end at test sizes, in
// both modes. A change elsewhere in the repository that breaks the API the
// benchmark compiles against, or an answer the gates check, fails here
// rather than in the next benchmark run.
func TestWorkloadsSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		for _, name := range workloadNames {
			cfg := runConfig{Seed: defaultSeed, Seconds: 1, Short: true, Trace: trace,
				WorkDir: t.TempDir(), Out: t.TempDir()}
			rep, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			for _, v := range rep.Violations {
				t.Errorf("%s (trace %v): %s", name, trace, v)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s (trace %v): attempted %d, failed %d", name, trace, rep.Attempted, rep.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			line := rep.driverLine(defs)
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics on the driver's line, want %d", name, trace, len(line.Metrics), len(defs))
			}
			if !trace {
				for _, d := range defs {
					if rep.Metrics[d.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.Name, rep.Metrics[d.Name])
					}
				}
			}
		}
	}
}
