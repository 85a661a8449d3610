package conform

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
)

// A repro directory is self-contained: design.json and machine.json
// are the standard graph/machine encodings the rest of the toolchain
// reads, case.json carries the scalar knobs (seed, heuristic, fault
// spec, skew, inputs), report.txt is the human summary, and
// <engine>.trace.json files hold the observed event streams. Replaying
// needs nothing outside the directory: `banger conform -repro DIR`.
const (
	reproDesignFile  = "design.json"
	reproMachineFile = "machine.json"
	reproCaseFile    = "case.json"
	reproReportFile  = "report.txt"
)

// caseJSON is the on-disk form of a Case's scalar fields. Inputs are
// plain numbers: the conform generator only ever draws Num inputs, so
// the repro format does not need the full binary value codec.
type caseJSON struct {
	Seed      int64              `json:"seed"`
	Heuristic string             `json:"heuristic"`
	Faults    string             `json:"faults,omitempty"`
	SkewComm  int64              `json:"skew_comm,omitempty"`
	Churn     string             `json:"churn,omitempty"`
	Lost      bool               `json:"lost,omitempty"`
	Inputs    map[string]float64 `json:"inputs"`
}

// WriteRepro writes a self-contained repro directory for the report.
func WriteRepro(dir string, rep *Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c := rep.Case
	if err := writeJSON(filepath.Join(dir, reproDesignFile), c.Design); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, reproMachineFile), c.Machine); err != nil {
		return err
	}
	cj := caseJSON{
		Seed:      c.Seed,
		Heuristic: c.Heuristic,
		SkewComm:  int64(c.SkewComm),
		Lost:      c.Lost,
		Inputs:    map[string]float64{},
	}
	if c.Faults != nil {
		cj.Faults = c.Faults.String()
	}
	if len(c.Churn) > 0 {
		cj.Churn = ChurnString(c.Churn)
	}
	for k, v := range c.Inputs {
		n, ok := v.(pits.Num)
		if !ok {
			return fmt.Errorf("conform: input %q is %T; repro inputs must be numbers", k, v)
		}
		cj.Inputs[k] = float64(n)
	}
	if err := writeJSON(filepath.Join(dir, reproCaseFile), cj); err != nil {
		return err
	}
	for _, e := range rep.Engines {
		if e.Trace == nil {
			continue
		}
		f, err := os.Create(filepath.Join(dir, e.Name+".trace.json"))
		if err != nil {
			return err
		}
		err = e.Trace.Encode(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, reproReportFile), []byte(reportText(rep)), 0o644)
}

// reportText renders the human-readable summary.
func reportText(rep *Report) string {
	c := rep.Case
	var b strings.Builder
	fmt.Fprintf(&b, "conform case seed=%d heuristic=%s machine=%s tasks=%d\n",
		c.Seed, c.Heuristic, c.Machine.Name, len(c.Design.Tasks()))
	if c.Faults != nil {
		fmt.Fprintf(&b, "faults: %s\n", c.Faults)
	}
	if c.Lost {
		b.WriteString("lost: retry off, a dropped copy is never resent\n")
	}
	if c.SkewComm != 0 {
		fmt.Fprintf(&b, "skew-comm: %s (runner engine only)\n", c.SkewComm)
	}
	if len(c.Churn) > 0 {
		fmt.Fprintf(&b, "churn: %s (distributed engines only)\n", ChurnString(c.Churn))
	}
	if rep.Schedule != nil {
		fmt.Fprintf(&b, "schedule: makespan=%s slots=%d msgs=%d\n",
			rep.Schedule.Makespan(), len(rep.Schedule.Slots), len(rep.Schedule.Msgs))
	}
	if len(rep.Divergences) == 0 {
		b.WriteString("PASS: all oracles held\n")
		return b.String()
	}
	fmt.Fprintf(&b, "FAIL: %d divergence(s)\n", len(rep.Divergences))
	for _, d := range rep.Divergences {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	names := make([]string, 0, len(rep.Engines))
	for _, e := range rep.Engines {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "engines: %s\n", strings.Join(names, ", "))
	return b.String()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadRepro reads a repro directory back into a runnable Case.
func LoadRepro(dir string) (*Case, error) {
	c := &Case{Design: &graph.Graph{}, Machine: &machine.Machine{}, Inputs: pits.Env{}}
	if err := readJSON(filepath.Join(dir, reproDesignFile), c.Design); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, reproMachineFile), c.Machine); err != nil {
		return nil, err
	}
	var cj caseJSON
	if err := readJSON(filepath.Join(dir, reproCaseFile), &cj); err != nil {
		return nil, err
	}
	c.Seed = cj.Seed
	c.Heuristic = cj.Heuristic
	c.SkewComm, c.Lost = machine.Time(cj.SkewComm), cj.Lost
	for k, v := range cj.Inputs {
		c.Inputs[k] = pits.Num(v)
	}
	if cj.Faults != "" {
		plan, err := exec.ParseFaults(cj.Faults)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", reproCaseFile, err)
		}
		c.Faults = plan
	}
	if cj.Churn != "" {
		ops, err := ParseChurn(cj.Churn)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", reproCaseFile, err)
		}
		c.Churn = ops
	}
	return c, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return nil
}

// Replay loads a repro directory and re-runs its case through every
// engine, returning the fresh report.
func Replay(ctx context.Context, dir string) (*Report, error) {
	c, err := LoadRepro(dir)
	if err != nil {
		return nil, err
	}
	return RunCase(ctx, c)
}
