package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"dyndbscan"
)

// staticPartition clusters pts with the offline exact DBSCAN oracle and
// returns the partition under the handles ids.
func staticPartition(ids []dyndbscan.PointID, pts []dyndbscan.Point) dyndbscan.Result {
	sc := dyndbscan.StaticDBSCAN(pts, dims, eps, minPts)
	groups := make(map[int][]dyndbscan.PointID)
	var res dyndbscan.Result
	for i, cs := range sc.Clusters {
		if len(cs) == 0 {
			res.Noise = append(res.Noise, ids[i])
		}
		for _, c := range cs {
			groups[c] = append(groups[c], ids[i])
		}
	}
	for _, g := range groups {
		res.Groups = append(res.Groups, g)
	}
	res.Normalize()
	return res
}

// TestGateMatchesStaticDBSCAN checks the gate's reference against the
// offline oracle on a few thousand points, for a single-shard and a sharded
// engine, and checks that the gate rejects perturbed expectations.
func TestGateMatchesStaticDBSCAN(t *testing.T) {
	// Seed-spreader clusters plus sparse skewed points, so that noise and
	// several clusters occur at ε = 200.
	rng := rand.New(rand.NewSource(7))
	pts := append(seedSpreaderPoints(rng, 2700), zipfBandPoints(rng, 300)...)
	for _, shards := range []int{1, 4} {
		opts := baseOptions()
		if shards > 1 {
			opts = append(opts, dyndbscan.WithShards(shards))
		}
		e, err := dyndbscan.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]dyndbscan.Op, len(pts))
		for i, p := range pts {
			ops[i] = dyndbscan.InsertOp(p)
		}
		ids, err := e.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkApply(ops, ids); err != nil {
			t.Fatal(err)
		}
		oracle := staticPartition(ids, pts)
		if len(oracle.Groups) < 2 || len(oracle.Noise) == 0 {
			t.Fatalf("data too plain for a check: %d clusters, %d noise", len(oracle.Groups), len(oracle.Noise))
		}
		got, err := e.GroupAll()
		if err != nil {
			t.Fatal(err)
		}
		if err := samePartition(got, oracle); err != nil {
			t.Fatalf("shards=%d: engine vs StaticDBSCAN: %v", shards, err)
		}
		ref, err := reference(ids, pts)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePartition(ref, oracle); err != nil {
			t.Fatalf("reference vs StaticDBSCAN: %v", err)
		}
		if err := checkFinal(e, ids, pts); err != nil {
			t.Fatalf("shards=%d: gate failed on a correct engine: %v", shards, err)
		}

		// Perturbed expectations must fail the gate.
		moved := clonePartition(oracle)
		moved.Groups[1] = append(moved.Groups[1], moved.Groups[0][0])
		moved.Groups[0] = moved.Groups[0][1:]
		moved.Normalize()
		if samePartition(got, moved) == nil {
			t.Error("gate accepted a clustering with one point moved between clusters")
		}
		noisy := clonePartition(oracle)
		noisy.Noise = append(noisy.Noise, noisy.Groups[0][0])
		noisy.Groups[0] = noisy.Groups[0][1:]
		noisy.Normalize()
		if samePartition(got, noisy) == nil {
			t.Error("gate accepted a clustering with a member turned to noise")
		}
		// A live set other than the engine's must fail the gate too: move
		// one clustered point far out of the data space.
		shifted := append([]dyndbscan.Point(nil), pts...)
		shifted[slices.Index(ids, oracle.Groups[0][0])] = dyndbscan.Point{space / 2, -space}
		if checkFinal(e, ids, shifted) == nil {
			t.Error("gate accepted a live set that differs from the engine's")
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func clonePartition(r dyndbscan.Result) dyndbscan.Result {
	var out dyndbscan.Result
	for _, g := range r.Groups {
		out.Groups = append(out.Groups, append([]dyndbscan.PointID(nil), g...))
	}
	out.Noise = append([]dyndbscan.PointID(nil), r.Noise...)
	return out
}

func TestCheckCoversRejectsWrongAnswers(t *testing.T) {
	q := []dyndbscan.PointID{1, 2, 3}
	ok := dyndbscan.Result{Groups: [][]dyndbscan.PointID{{1, 2}, {2}}, Noise: []dyndbscan.PointID{3}}
	if err := checkCovers(q, ok); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, bad := range map[string]dyndbscan.Result{
		"missing":        {Groups: [][]dyndbscan.PointID{{1, 2}}},
		"extra":          {Groups: [][]dyndbscan.PointID{{1, 2, 4}}, Noise: []dyndbscan.PointID{3}},
		"noise and core": {Groups: [][]dyndbscan.PointID{{1, 2, 3}}, Noise: []dyndbscan.PointID{3}},
	} {
		if checkCovers(q, bad) == nil {
			t.Errorf("%s: wrong answer accepted", name)
		}
	}
}

// TestWorkloadsSmall runs every workload end to end at a small scale,
// untraced and traced, and checks the result line.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			var out, errOut bytes.Buffer
			cfg := newConfig(sp, 3, 0.5, trace, t.TempDir())
			cfg.live = 3000
			if rc := report(cfg, &out, &errOut); rc != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", sp.name, trace, rc, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: %+v", sp.name, trace, res)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", sp.name, trace, len(res.Metrics), len(want))
			}
			for _, def := range want {
				if _, ok := res.Metrics[def.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", sp.name, trace, def.name)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads, program has %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q/%q, program has %q/%q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%d metrics, program has %d", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			w := c.want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("metric %d: %+v, program has %s %s %s", i, m, w.name, w.unit, w.better)
			}
		}
	}
}
