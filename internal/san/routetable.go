package san

import "slices"

// routeTable maps destination ids to a switch's primary and backup output
// ports. Node ids come in a few dense runs — the cluster numbers hosts,
// stores and switches up from three far-apart bases — so the table keeps
// one slice of entries per run of ids instead of hashing every id; a fat
// tree needs three runs. Ids outside every run, and ids inside a run that
// were never set, read as no route.
type routeTable struct {
	runs []routeRun // sorted by base; runs neither overlap nor touch
}

// routeRun holds the entries for ids base .. base+len(ents)-1.
type routeRun struct {
	base NodeID
	ents []routeEntry
}

func (r *routeRun) end() NodeID { return r.base + NodeID(len(r.ents)) }

// routeEntry holds one destination's ports, each stored plus one so that
// the zero value — and every id a run spans but nobody set — means none.
type routeEntry struct{ primary, backup int32 }

// maxRunGap bounds the unset ids a run may span to take in a new id: a run
// grows to an id fewer than maxRunGap ids beyond either of its ends. Runs
// have small holes — a switch never routes to its own id, and a spec may
// attach endpoints out of id order — but an id further from every run
// starts a run of its own, so sparse ids never allocate the gap between.
const maxRunGap = 64

// find returns dst's entry, or nil if no run holds dst.
func (t *routeTable) find(dst NodeID) *routeEntry {
	for i := range t.runs {
		r := &t.runs[i]
		// Unsigned compare: ids below base wrap to huge offsets.
		if off := uint64(dst - r.base); off < uint64(len(r.ents)) {
			return &r.ents[off]
		}
	}
	return nil
}

// ports returns dst's primary and backup ports, -1 where none is set.
func (t *routeTable) ports(dst NodeID) (primary, backup int) {
	if e := t.find(dst); e != nil {
		return int(e.primary) - 1, int(e.backup) - 1
	}
	return -1, -1
}

// slot returns dst's entry for writing, widening the table to hold it.
func (t *routeTable) slot(dst NodeID) *routeEntry {
	if e := t.find(dst); e != nil {
		return e
	}
	i := 0 // the first run above dst
	for i < len(t.runs) && t.runs[i].base < dst {
		i++
	}
	switch {
	case i > 0 && dst < t.runs[i-1].end()+maxRunGap:
		i--
		r := &t.runs[i]
		for r.end() <= dst {
			r.ents = append(r.ents, routeEntry{})
		}
	case i < len(t.runs) && dst >= t.runs[i].base-maxRunGap:
		// Grow downwards by as much as the run already holds, so ids set
		// in descending order cost amortised O(1) as ascending ones do.
		r := &t.runs[i]
		lo := min(dst, r.base-NodeID(len(r.ents)))
		if i > 0 {
			lo = max(lo, t.runs[i-1].end())
		}
		ents := make([]routeEntry, int(r.end()-lo))
		copy(ents[r.base-lo:], r.ents)
		r.base, r.ents = lo, ents
	default:
		t.runs = slices.Insert(t.runs, i, routeRun{base: dst, ents: make([]routeEntry, 1)})
	}
	t.join(i)
	t.join(i - 1)
	return t.find(dst)
}

// reserve widens the table so that one run spans ids lo .. lo+n-1, taking
// in every run the span overlaps or touches. Ids it adds read as no route,
// and setting a route inside the span then only writes.
func (t *routeTable) reserve(lo NodeID, n int) {
	if n <= 0 {
		return
	}
	hi := lo + NodeID(n)
	i := 0 // the first run that ends at or after lo
	for i < len(t.runs) && t.runs[i].end() < lo {
		i++
	}
	j := i // one past the last run that starts at or before hi
	for j < len(t.runs) && t.runs[j].base <= hi {
		j++
	}
	if j > i {
		lo, hi = min(lo, t.runs[i].base), max(hi, t.runs[j-1].end())
		if j == i+1 && t.runs[i].base == lo && t.runs[i].end() == hi {
			return // one run already spans it
		}
	}
	ents := make([]routeEntry, int(hi-lo))
	for _, r := range t.runs[i:j] {
		copy(ents[r.base-lo:], r.ents)
	}
	t.runs = slices.Replace(t.runs, i, j, routeRun{base: lo, ents: ents})
}

// join merges run i+1 into run i if run i now ends where it begins.
func (t *routeTable) join(i int) {
	if i < 0 || i+1 >= len(t.runs) || t.runs[i].end() != t.runs[i+1].base {
		return
	}
	t.runs[i].ents = append(t.runs[i].ents, t.runs[i+1].ents...)
	t.runs = slices.Delete(t.runs, i+1, i+2)
}
