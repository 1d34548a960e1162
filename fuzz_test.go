package dyndbscan_test

// Fuzzed cross-shard equivalence: arbitrary byte streams decode into mixed
// insert/delete op streams that run through the shared cross-mode harness on
// a 2-shard engine with Rho = 0, compared against the single-shard reference
// (plus a subscribed engine whose seam structure is audited and whose event
// stream is validated), and the reference itself against the static DBSCAN
// oracle. CI runs a short -fuzztime smoke over the checked-in
// corpus; `go test -fuzz FuzzCrossShardEquivalence .` explores further.

import (
	"testing"

	"dyndbscan"
	"dyndbscan/internal/wal"
)

// decodeFuzzOps turns a byte stream into ops through the WAL codec's shared
// interpreter (wal.OpsFromBytes), so this fuzzer and the WAL's own harness
// explore the same op space; only the adaptation to eqOp lives here.
func decodeFuzzOps(data []byte) []eqOp {
	wops := wal.OpsFromBytes(data)
	ops := make([]eqOp, 0, len(wops))
	for _, op := range wops {
		if op.Kind == wal.OpDelete {
			ops = append(ops, eqOp{Del: int(op.ID)})
			continue
		}
		ops = append(ops, eqOp{Insert: true, X: op.Coord[0], Y: op.Coord[1]})
	}
	return ops
}

func FuzzCrossShardEquivalence(f *testing.F) {
	// Seeds: a tight blob straddling x = 0 (a stripe seam), a bridge being
	// built then torn down, and interleaved scattered churn.
	blob := []byte{}
	for i := byte(0); i < 18; i++ {
		blob = append(blob, 0, 120+(i%6)*3, 10+(i/6)*3)
	}
	bridge := append([]byte{}, blob...)
	for i := byte(0); i < 12; i++ {
		bridge = append(bridge, 1, 100+i*5, 12)
	}
	for i := byte(0); i < 8; i++ {
		bridge = append(bridge, 3, 0, 18+i) // deletes
	}
	churn := []byte{}
	for i := byte(0); i < 40; i++ {
		churn = append(churn, i, i*7, i*11)
	}
	f.Add(blob)
	f.Add(bridge)
	f.Add(churn)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096] // bound per-exec cost; coverage, not volume
		}
		ops := decodeFuzzOps(data)
		if len(ops) == 0 {
			return
		}
		cfg := eqConfig{
			algo:   dyndbscan.AlgoFullyDynamic,
			shards: 2,
			stripe: 2,
			eps:    20,
			minPts: 3,
			batch:  8, checkEvery: 4,
			rebalanceEvery: 5, // fuzz the migration path too
			hotspot:        true,
			hotJoinEvery:   3, // fuzz the split-phase machinery too
		}
		if err := runEqStream(cfg, ops); err != nil {
			t.Fatalf("cross-shard divergence: %v\nops (%d): %s", err, len(ops), formatEqOps(ops))
		}
	})
}
