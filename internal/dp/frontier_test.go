package dp

import (
	"testing"

	"mpq/internal/plan"
)

func fp(cost float64) *plan.Node { return &plan.Node{Cost: cost} }

// The frontier must behave like a plain ordered list across the
// inline→spill boundary: Append/At/Slice agree with a reference slice
// for every transition size, and reset empties it for reuse.
func TestFrontierMatchesReferenceSlice(t *testing.T) {
	for size := 0; size <= 2*frontierInline+1; size++ {
		var f frontier
		var ref []*plan.Node
		for i := 0; i < size; i++ {
			p := fp(float64(i))
			f.Append(p)
			ref = append(ref, p)
		}
		if f.Len() != len(ref) {
			t.Fatalf("size %d: Len = %d", size, f.Len())
		}
		for i, p := range ref {
			if f.At(i) != p {
				t.Fatalf("size %d: At(%d) mismatch", size, i)
			}
		}
		got := f.Slice()
		if len(got) != len(ref) {
			t.Fatalf("size %d: Slice len %d", size, len(got))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("size %d: Slice[%d] mismatch", size, i)
			}
		}

		// A reset frontier pins no plan and takes new ones from the start.
		f.reset()
		for i := range f.inline {
			if f.inline[i] != nil {
				t.Fatalf("size %d: inline slot %d not released", size, i)
			}
		}
		if f.Len() != 0 || f.Slice() != nil {
			t.Fatalf("size %d: reset left %d plans", size, f.Len())
		}
		extra := fp(1000)
		f.Append(extra)
		if f.Len() != 1 || f.At(0) != extra {
			t.Fatal("append after reset lost the new plan")
		}
	}
}

// An inline-resident frontier performs no heap allocation for Append or
// reset — the point of the 2-slot inline storage.
func TestFrontierInlineAllocFree(t *testing.T) {
	a, b := fp(1), fp(2)
	var f frontier
	allocs := testing.AllocsPerRun(1000, func() {
		f.reset()
		f.Append(a)
		f.Append(b)
	})
	if allocs != 0 {
		t.Errorf("inline frontier allocates %.1f times per run", allocs)
	}
}

// The spill arena must hand back copies that cannot alias each other or
// the scratch frontier: appending to the source after a clone, or
// cloning again, must leave earlier clones untouched — this is what
// protects memo entries from the worker's scratch reuse.
func TestSpillArenaCloneIsolation(t *testing.T) {
	var sa spillArena
	var f frontier
	for i := 0; i < frontierInline+2; i++ {
		f.Append(fp(float64(i)))
	}
	stored := f
	stored.spill = sa.clone(f.spill)

	f.reset()
	for i := 0; i < frontierInline+3; i++ {
		f.Append(fp(float64(100 + i)))
	}
	other := f
	other.spill = sa.clone(f.spill)

	if got := stored.At(frontierInline).Cost; got != frontierInline {
		t.Fatalf("stored copy mutated through scratch reuse: spill[0] cost = %g", got)
	}
	if got := other.At(frontierInline + 2).Cost; got != 100+frontierInline+2 {
		t.Fatalf("second clone wrong: %g", got)
	}
	// A clone's capacity is clamped: appending must not overwrite the
	// neighbouring region.
	grown := stored
	grown.Append(fp(-1))
	if got := other.At(frontierInline).Cost; got != 102 {
		t.Fatalf("append to one clone scribbled over another: %g", got)
	}

	// Oversized frontiers fall back to a dedicated allocation.
	big := make([]*plan.Node, spillSlabLen+5)
	for i := range big {
		big[i] = fp(float64(i))
	}
	got := sa.clone(big)
	if len(got) != len(big) || got[len(got)-1].Cost != float64(spillSlabLen+4) {
		t.Fatal("oversized clone wrong")
	}

	// Reset recycles regions: same-size clones after reset add no slab.
	slabs := len(sa.slabs)
	sa.reset()
	sa.clone(f.spill)
	if len(sa.slabs) != slabs {
		t.Fatalf("reset did not recycle spill slabs: %d != %d", len(sa.slabs), slabs)
	}
}
