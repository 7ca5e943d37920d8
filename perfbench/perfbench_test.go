package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// TestTinyWorkloads runs every workload at tiny size — a few hundred rows,
// one op per operation type, every output check on — untraced and traced,
// and checks each run reports exactly the metrics BENCHMARK.json declares.
func TestTinyWorkloads(t *testing.T) {
	decl := declared(t)
	for name, drive := range workloads {
		for _, traced := range []bool{false, true} {
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				p := params{seed: 7, size: tinySize, work: t.TempDir(), log: testLog{t}}
				if traced {
					p.tr = newTracer()
				}
				rep, err := drive(p)
				if err != nil {
					t.Fatal(err)
				}
				if rep.attempted == 0 || rep.failed != 0 {
					t.Fatalf("%d of %d ops failed", rep.failed, rep.attempted)
				}
				metrics, want := endToEnd(rep), decl.EndToEnd
				if traced {
					metrics, want = layerMetrics(rep.layers), decl.PerLayer
					if v := metrics[mainLayer[name]].Value; v <= 0 {
						t.Errorf("traced run reports %s = %v, want > 0", mainLayer[name], v)
					}
				}
				if len(metrics) != len(want) {
					t.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(metrics), len(want))
				}
				for _, m := range want {
					got, ok := metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// mainLayer names, per workload, a layer every traced run must time.
var mainLayer = map[string]string{
	"adults-cold":    "core.anonymize_ms",
	"landsend-delta": "core.delta_ms",
	"service-mix":    "service.run_ms",
}

func TestChecksCatchWrongOutput(t *testing.T) {
	ref := &output{solutions: [][]int{{1, 0}}, csv: []byte("A,B\n1,x\n1,x\n")}
	same := &output{solutions: [][]int{{1, 0}}, csv: []byte("A,B\n1,x\n1,x\n")}
	if err := same.equal(ref); err != nil {
		t.Fatalf("identical outputs: %v", err)
	}
	bad := &output{solutions: [][]int{{1, 0}}, csv: []byte("A,B\n1,x\n1,y\n")}
	if bad.equal(ref) == nil {
		t.Error("a changed release passed the check")
	}
	if err := checkKAnonymous(ref.csv, 2, 2); err != nil {
		t.Errorf("2-anonymous release rejected: %v", err)
	}
	if checkKAnonymous(bad.csv, 2, 2) == nil {
		t.Error("a class of one row passed the 2-anonymity check")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "adults-cold", "--trace", "2"},
		{"--workload", "adults-cold", "extra"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and no output", args, code, out.String())
		}
	}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type declaration struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func declared(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// testLog routes the workloads' progress lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(b []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(b), "\n"))
	return len(b), nil
}
