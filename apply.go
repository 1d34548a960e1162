package dyndbscan

import "fmt"

// OpKind discriminates the operations an Apply batch can carry.
type OpKind uint8

const (
	// OpInsert adds Op.Pt to the point set.
	OpInsert OpKind = iota + 1
	// OpDelete removes the live handle Op.ID.
	OpDelete
)

// String returns the op kind's name.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "Insert"
	case OpDelete:
		return "Delete"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one element of a mixed-operation batch; build them with InsertOp and
// DeleteOp.
type Op struct {
	Kind OpKind
	Pt   Point   // OpInsert: the point to add
	ID   PointID // OpDelete: the handle to remove
}

// InsertOp returns the Op inserting pt.
func InsertOp(pt Point) Op { return Op{Kind: OpInsert, Pt: pt} }

// DeleteOp returns the Op deleting the live handle id.
func DeleteOp(id PointID) Op { return Op{Kind: OpDelete, ID: id} }

// Apply executes a mixed batch of insertions and deletions as one update:
// one commit, one version advance, one event publication. It is the natural
// unit for a service ingesting a change stream (a tick of positions: new
// vehicles in, stale vehicles out).
//
// The batch runs in two phases. The pre-commit phase validates every op and
// stages the insertions (coordinate conversion, grid cell assignment) in
// parallel across the engine's workers; a malformed point, an unknown or
// duplicated delete target, an invalid kind, or any delete op on the
// insertion-only AlgoSemiDynamic fails the whole batch with no state change.
// Delete targets must be live when Apply begins: an op cannot delete a point
// inserted earlier in the same batch (its handle is not known yet). The
// commit phase then applies the ops in order under one critical section.
//
// The result has one entry per op: the freshly minted handle for an
// insertion, the (now dead) target handle for a deletion.
//
// On a backend that rejects an op mid-commit (deletions on a wrapped
// semi-dynamic clusterer, foreign failures) the work already applied
// commits, and the error reports the aborting index — the same partial-
// commit contract as InsertBatch/DeleteBatch on foreign backends.
func (e *Engine) Apply(ops []Op) ([]PointID, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	// Pre-commit phase: split out the insertions, stage them in parallel,
	// and validate delete targets for well-formedness and duplicates.
	inserts := make([]Point, 0, len(ops))
	insertAt := make([]int, 0, len(ops)) // op index of each staged insert
	dels := make(map[PointID]int, 8)     // delete target -> first op index
	for i, op := range ops {
		switch op.Kind {
		case OpInsert:
			inserts = append(inserts, op.Pt)
			insertAt = append(insertAt, i)
		case OpDelete:
			if e.algo == AlgoSemiDynamic {
				// Predictably doomed: fail the whole batch up front instead
				// of partially committing the inserts before it.
				return nil, fmt.Errorf("dyndbscan: Apply op %d: %w", i, ErrDeletesUnsupported)
			}
			if j, dup := dels[op.ID]; dup {
				return nil, fmt.Errorf("dyndbscan: Apply op %d deletes id %d already deleted by op %d: %w", i, op.ID, j, ErrDuplicateID)
			}
			dels[op.ID] = i
		default:
			return nil, fmt.Errorf("dyndbscan: Apply op %d: invalid kind %v", i, op.Kind)
		}
	}
	ss := e.sh
	staged, err := ss.stage(inserts, "Apply op", insertAt)
	if err != nil {
		return nil, err
	}
	if ss.hs != nil {
		if len(inserts) == len(ops) {
			// Pure-insert batch: eligible for split-phase diversion.
			if out, ok, err := ss.hotCommit(staged); ok {
				return out, err
			}
		} else {
			targets := make([]PointID, 0, len(ops)-len(inserts))
			for _, op := range ops {
				if op.Kind != OpInsert {
					targets = append(targets, op.ID)
				}
			}
			ss.joinForDelete(targets)
		}
	}
	shOps := make([]shOp, len(ops))
	next := 0
	for i, op := range ops {
		if op.Kind == OpInsert {
			shOps[i] = shOp{insert: true, sp: staged[next]}
			next++
		} else {
			shOps[i] = shOp{gid: op.ID}
		}
	}
	return ss.commitBatch(shOps, func(i int, id PointID) error {
		return fmt.Errorf("dyndbscan: Apply op %d: %w (id %d)", i, ErrUnknownPoint, id)
	}, func(i int, err error) error {
		return fmt.Errorf("dyndbscan: Apply aborted at op %d: %w", i, err)
	})
}
