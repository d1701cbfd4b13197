package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"spdier/internal/stats"
	"spdier/internal/webpage"
)

// results is what running every workload writes.
type results struct {
	Env       envBlock   `json:"env"`
	Workloads []*report  `json:"workloads"`
	Defs      metricDefs `json:"metrics"`
	Claim     any        `json:"claim"` // null: no gain is claimed
}

type metricDefs struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// runChild measures one workload in its own process and reads back the
// report it wrote.
func runChild(cfg config, name string, stdout, stderr io.Writer) (*report, error) {
	repPath := filepath.Join(buildDir, "report."+name+".json")
	args := []string{
		"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-out", repPath, "-cpu", fmt.Sprint(cfg.cpu),
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	switch {
	case cfg.trace == "1":
		args = append(args, "-trace", "1")
	case cfg.traced():
		ext := filepath.Ext(cfg.trace)
		args = append(args, "-trace", cfg.trace[:len(cfg.trace)-len(ext)]+"."+name+ext)
	}
	cmd, err := child(args...)
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(repPath)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: reading its report: %w", name, err)
	}
	return rep, nil
}

// runAll runs the five workloads, each in a child process, and writes
// the collected results.
func runAll(cfg config, stdout, stderr io.Writer) error {
	res := results{Env: readEnv(), Defs: metricDefs{endToEndDefs, perLayerDefs}}
	incorrect := 0
	for _, w := range workloads {
		rep, err := runChild(cfg, w.name, stdout, stderr)
		if err != nil {
			return err
		}
		if !rep.Correct {
			incorrect++
		}
		res.Workloads = append(res.Workloads, rep)
		fmt.Fprintln(stdout)
	}
	out := cfg.out
	if out == "" {
		out = filepath.Join(buildDir, "results.json")
	}
	if err := writeJSON(out, res); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results written to %s\n", out)
	if incorrect > 0 {
		return fmt.Errorf("%d workloads produced wrong output", incorrect)
	}
	return nil
}

// selfcheckRuns is how many runs of each workload one -selfcheck set
// takes the median of.
const selfcheckRuns = 3

// runSet runs every workload selfcheckRuns times and returns, per
// workload and end-to-end metric, the median over those runs.
func runSet(cfg config, stderr io.Writer) (map[string]map[string]float64, error) {
	set := map[string]map[string]float64{}
	for _, w := range workloads {
		samples := map[string][]float64{}
		for i := 0; i < selfcheckRuns; i++ {
			rep, err := runChild(cfg, w.name, io.Discard, stderr)
			if err != nil {
				return nil, err
			}
			if !rep.Correct {
				return nil, fmt.Errorf("%s produced wrong output: %v", w.name, rep.Problems)
			}
			for _, def := range endToEndDefs {
				samples[def.Name] = append(samples[def.Name], rep.EndToEnd[def.Name].Value)
			}
		}
		set[w.name] = map[string]float64{}
		for _, def := range endToEndDefs {
			set[w.name][def.Name] = stats.Median(samples[def.Name])
		}
	}
	return set, nil
}

// verdict compares two sets of the same code on one metric. The code
// did not change, so a disagreement wider than the bound is noise the
// benchmark cannot see through: unresolved, not passed.
func verdict(a, b, bound float64) (disagreement float64, status string) {
	disagreement = math.Abs(b-a) / a
	if disagreement > bound {
		return disagreement, "unresolved"
	}
	return disagreement, "ok"
}

// selfcheck runs two back-to-back sets of the same code and holds each
// end-to-end metric's disagreement against its bound.
func selfcheck(cfg config, stdout, stderr io.Writer) error {
	cfg.trace = "0"
	first, err := runSet(cfg, stderr)
	if err != nil {
		return err
	}
	second, err := runSet(cfg, stderr)
	if err != nil {
		return err
	}
	unresolved := 0
	fmt.Fprintf(stdout, "%-10s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "set 1", "set 2", "differ", "bound", "status")
	for _, w := range workloads {
		for _, def := range endToEndDefs {
			a, b := first[w.name][def.Name], second[w.name][def.Name]
			d, status := verdict(a, b, def.Bound)
			if status != "ok" {
				unresolved++
			}
			fmt.Fprintf(stdout, "%-10s %-18s %14.4f %14.4f %8.2f%% %5.0f%%  %s\n",
				w.name, def.Name, a, b, d*100, def.Bound*100, status)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d metrics disagree by more than their bound between two sets of the same code", unresolved)
	}
	return nil
}

// updateDigests runs one round of every workload at the default seed
// and rewrites the committed digests from it.
func updateDigests(stdout io.Writer) error {
	all := map[string]map[string]string{}
	for i := range workloads {
		w := &workloads[i]
		b := &bench{w: w, seed: defaultSeed, sites: webpage.Table1(), chk: newChecker(nil), cal: newCalibrator(), fold: newPLTFolder()}
		if w.sweep {
			b.sweepRound(w.seeds, sweepEachSeeds, 1)
		} else {
			b.armRound(w.seeds)
		}
		if b.chk.failed > 0 {
			return fmt.Errorf("%s: %v", w.name, b.chk.problems)
		}
		all[w.name] = b.chk.seen
		fmt.Fprintf(stdout, "%s: %d digests\n", w.name, len(b.chk.seen))
	}
	return writeJSON(digestsPath, all)
}
