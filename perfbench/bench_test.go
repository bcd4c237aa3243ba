package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process:
// the benchmark re-executes its own executable with workerEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if err := workerMain(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program runs and prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	if fmt.Sprint(f.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", f.EndToEnd, endToEnd)
	}
	if fmt.Sprint(f.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", f.PerLayer, perLayer)
	}
}

// TestToyScale runs each workload at toy scale through benchMain, as the
// benchmark runs it, and checks that every run passes its output checks
// and that every named metric prints with its unit, untraced and traced.
func TestToyScale(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.json")
				var out bytes.Buffer
				code := benchMain([]string{"--workload", w.Name, "--seed", "3", "--seconds", "0.01",
					"--trace", trace, "--toy", "--spans-out", spans}, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Fatalf("result %+v", res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
					if _, err := os.Stat(spans); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
			})
		}
	}
}

// TestTracedBuildMatches checks, in process, that the traced build from
// the primitives compiles the same tables and simulates the same run as
// the arch build, and that the root span's children cover it apart from
// a small self time.
func TestTracedBuildMatches(t *testing.T) {
	for _, w := range workloads {
		w := w.toy()
		u, err := runOp(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := runTracedOp(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		if u.Sim.Digest != tr.Sim.Digest || u.Sim.TableEntries == 0 {
			t.Errorf("%s: untraced digest %s (%d entries), traced %s", w.Name, u.Sim.Digest, u.Sim.TableEntries, tr.Sim.Digest)
		}
		if bad := check(u, tr); len(bad) > 0 {
			t.Errorf("%s: traced run differs: %v", w.Name, bad)
		}
		_, rootSelf := selfTimes(tr.Spans)
		if root := tr.Spans[0].dur(); rootSelf < 0 || rootSelf > 0.05*root {
			t.Errorf("%s: root self time %.6f s of %.6f s: children do not cover the root", w.Name, rootSelf, root)
		}
		for _, s := range tr.Spans[1:] {
			if s.Parent != 0 || s.StartNs < 0 || s.EndNs < s.StartNs || s.EndNs > tr.Spans[0].EndNs {
				t.Errorf("%s: span %+v outside its root", w.Name, s)
			}
		}
	}
}
