package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// aaPair is one end-to-end metric measured twice on the same commit.
type aaPair struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Ratio    float64 `json:"ratio"` // second over first
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// worsening is the share by which b is worse than a, in the metric's own
// direction; negative when b is better.
func (d metricDef) worsening(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs every workload twice, the second time in reverse order, and
// holds each pair of end-to-end values to the metric's bound in both
// directions. It is the benchmark checking its own steadiness: two runs of
// one commit that disagree by more than a bound would make that bound
// meaningless.
func runAA(cfg runConfig) error {
	first, second := map[string]*report{}, map[string]*report{}
	order := append([]string(nil), workloadNames...)
	for pass, into := range []map[string]*report{first, second} {
		for _, name := range order {
			rep, err := runWorkload(name, cfg)
			if err != nil {
				return fmt.Errorf("%s, pass %d: %w", name, pass+1, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s, pass %d: %v", name, pass+1, rep.Violations)
			}
			into[name] = rep
		}
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}

	doc := struct {
		Env   environment `json:"env"`
		Pairs []aaPair    `json:"pairs"`
		Claim *string     `json:"claim"`
	}{Env: environmentOf(cfg)}
	ok := true
	fmt.Printf("%-11s %-24s %14s %14s %7s %6s\n", "workload", "metric", "first", "second", "ratio", "bound")
	for _, name := range workloadNames {
		for _, d := range append(append([]metricDef(nil), endToEnd...), workloadOnly[name]...) {
			a, b := first[name].value(d.Name), second[name].value(d.Name)
			p := aaPair{Workload: name, Metric: d.Name, Unit: d.Unit, First: a, Second: b, Bound: d.Bound,
				Within: d.worsening(a, b) <= d.Bound && d.worsening(b, a) <= d.Bound}
			if a != 0 {
				p.Ratio = b / a
			}
			mark := ""
			if !p.Within {
				mark, ok = "  OUTSIDE", false
			}
			fmt.Printf("%-11s %-24s %14.4f %14.4f %7.3f %6.2f%s\n", name, d.Name, a, b, p.Ratio, d.Bound, mark)
			doc.Pairs = append(doc.Pairs, p)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(doc); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("two runs of one commit disagree by more than a bound")
	}
	return nil
}

// value reads a metric wherever the workload reported it.
func (r *report) value(name string) float64 {
	if v, ok := r.Metrics[name]; ok {
		return v
	}
	return r.Extra[name]
}
