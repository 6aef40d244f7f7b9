package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the command must agree
// with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesCommand(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, have)
	}
	if len(s.PerLayer) != len(layerMetricNames) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(s.PerLayer), len(layerMetricNames))
	}
	for _, m := range s.PerLayer {
		if u, ok := layerUnits[m.Name]; !ok || u != m.Unit {
			t.Fatalf("per-layer metric %s (%s): traced run reports unit %q", m.Name, m.Unit, u)
		}
	}
}

// runOnce runs the command and decodes its last stdout line.
func runOnce(t *testing.T, args ...string) (result, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: last line %q: %v\nstderr:\n%s", args, lines[len(lines)-1], err, errOut.String())
	}
	return r, code
}

// TestEveryWorkloadReportsItsMetrics runs each workload briefly, both
// untraced and traced, and checks the result line carries exactly the
// metrics BENCHMARK.json lists, with their units, and no failures.
func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and clusters")
	}
	s := readSpec(t)
	for _, w := range s.Workloads {
		for trace, want := range map[string][]specMetric{"0": s.EndToEnd, "1": s.PerLayer} {
			r, code := runOnce(t, "--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace)
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, correct %v, %d of %d failed", w.Name, trace, code, r.Correct, r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(want) {
				t.Fatalf("%s trace %s: %d metrics, want %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Fatalf("%s trace %s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Fatalf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim", "--trace", "2"},
		{"--workload", "sim", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Fatalf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
