package core

import (
	"testing"

	"siot/internal/task"
)

// tinyView builds a 3-agent path graph 0—1—2 where agent 0 holds one record
// about agent 1 for the given task.
func tinyView(t *testing.T, tk task.Task) *TrustView {
	t.Helper()
	adjOff := []int32{0, 1, 3, 4}
	adjTo := []AgentID{1, 0, 2, 1}
	cat := task.NewCatalog()
	store := map[[2]AgentID][]CompactRecord{
		{0, 1}: {{Ref: cat.Intern(tk), Exp: Expectation{S: 0.9, G: 0.9, D: 0.1}, Count: 1}},
	}
	v, err := CaptureTrustView(adjOff, adjTo, CaptureSource{
		Catalog: cat,
		Count: func(holder, about AgentID) int {
			return len(store[[2]AgentID{holder, about}])
		},
		Append: func(holder, about AgentID, buf []CompactRecord) []CompactRecord {
			return append(buf, store[[2]AgentID{holder, about}]...)
		},
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestEdgeMemoConservativeTaskGuard: a model's hop table is only valid for
// the exact task it was built from. A same-type task with different
// characteristics must not be served a stale table (modelTable returns nil
// and the search falls back to arena records), and RequireModel for the
// new task must rebuild the table.
func TestEdgeMemoConservativeTaskGuard(t *testing.T) {
	taskA := task.Uniform(3, task.CharGPS)
	taskB := task.Uniform(3, task.CharImage) // same type, different bag
	view := tinyView(t, taskA)
	memo := NewEdgeMemo(view, UnitNormalizer(), 1)
	cons := PolicyConservative.Model()

	memo.RequireModel(cons, []task.Task{taskA})
	if memo.modelTable(cons, taskA) == nil {
		t.Fatal("table for the required task missing")
	}
	if got := memo.modelTable(cons, taskB); got != nil {
		t.Fatalf("same-type different-content task served a stale table: %v", got)
	}

	memo.RequireModel(cons, []task.Task{taskB})
	if memo.modelTable(cons, taskB) == nil {
		t.Fatal("table not rebuilt for the new task contents")
	}
	// The rebuilt table must block edge (0,1): the record covers GPS, not
	// Image.
	vals := memo.modelTable(cons, taskB)
	if _, ok := InferFromCompact(view.Tasks(), view.EdgeRecords(0), taskB, UnitNormalizer()); ok {
		t.Fatal("fixture broken: taskB should not be inferable from a GPS record")
	}
	if !isBlocked(vals[0]) {
		t.Fatalf("edge (0,1) should be blocked for taskB, got %v", vals[0])
	}

	// The traditional table holds the exact-type record's trustworthiness
	// (eq. 5's per-hop value) and blocks edges with no record of the type.
	trad := PolicyTraditional.Model()
	memo.RequireModel(trad, []task.Task{taskA})
	got := memo.modelTable(trad, taskA)
	if got == nil {
		t.Fatal("traditional table for the required task missing")
	}
	want := (Record{Task: taskA, Exp: Expectation{S: 0.9, G: 0.9, D: 0.1}}).TW(UnitNormalizer())
	if got[0] != want {
		t.Fatalf("edge (0,1) traditional value = %v, want %v", got[0], want)
	}
	if !isBlocked(got[1]) {
		t.Fatalf("edge (1,0) holds no record, traditional value = %v, want blocked", got[1])
	}
}

func isBlocked(v float64) bool { return v != v }
