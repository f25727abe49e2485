package core

// lsq is the centralized load/store disambiguation unit of Section 2:
// every cluster's memory operations are forwarded here after their
// effective-address computation. A load may access the data cache once
// every earlier store's address is known (Table 2's policy); a store whose
// address matches forwards its data instead. Stores write to memory at
// commit.
//
// The queue is a fixed-capacity ring of in-flight memory instructions in
// program order; per-entry state (address known, access done) lives inline
// in the DynInst, so the steady-state cycle loop performs no allocation
// here (see ARCHITECTURE.md, "allocation-free hot loop").
type lsq struct {
	ring []*DynInst // power-of-two length so indexing is a mask
	cap  int
	head int
	n    int
	// awaiting counts the loads whose address is known and whose access
	// has not started — the entries ReadyLoads returns — so the memory
	// stage skips its scan while it is zero. It
	// changes only where those two flags do (MarkAddrKnown,
	// MarkAccessed), and a checkpoint's struct copy carries it.
	awaiting int
}

func newLSQ(capacity int) *lsq {
	return &lsq{ring: make([]*DynInst, nextPow2(capacity)), cap: capacity}
}

// at returns the i-th oldest entry (0 = oldest).
//
//dca:hotpath
func (q *lsq) at(i int) *DynInst {
	return q.ring[(q.head+i)&(len(q.ring)-1)]
}

// Free returns remaining capacity.
//
//dca:hotpath
func (q *lsq) Free() int { return q.cap - q.n }

// Add appends a dispatched memory instruction in program order.
//
//dca:hotpath
func (q *lsq) Add(d *DynInst) {
	d.lsqAddrKnown = false
	d.lsqAccessed = false
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = d
	q.n++
}

// MarkAddrKnown records that d's effective address is computed; a load
// then awaits its access.
//
//dca:hotpath
func (q *lsq) MarkAddrKnown(d *DynInst) {
	d.lsqAddrKnown = true
	if d.isLoad {
		q.awaiting++
	}
}

// MarkAccessed records that load d was sent to the cache or forwarded, so
// it is not issued twice.
//
//dca:hotpath
func (q *lsq) MarkAccessed(d *DynInst) {
	d.lsqAccessed = true
	q.awaiting--
}

// Awaiting returns the number of loads whose address is known and whose
// access has not started.
//
//dca:hotpath
func (q *lsq) Awaiting() int { return q.awaiting }

// overlap reports whether two accesses touch a common byte.
//
//dca:hotpath
func overlap(a1 uint64, w1 int, a2 uint64, w2 int) bool {
	return a1 < a2+uint64(w2) && a2 < a1+uint64(w1)
}

// loadDisposition describes what a ready load may do this cycle.
type loadDisposition int

const (
	loadBlocked loadDisposition = iota // an earlier store address is unknown or data pending
	loadForward                        // store-to-load forwarding available
	loadAccess                         // may access the data cache
)

// classify determines whether the load l can proceed: every earlier store
// must have a known address; if the youngest earlier overlapping store has
// its data ready it forwards, if the data is pending the load blocks.
//
//dca:hotpath
func (q *lsq) classify(l *DynInst, rf []regFile) loadDisposition {
	for i := q.n - 1; i >= 0; i-- {
		e := q.at(i)
		if e.Seq >= l.Seq || !e.isStore {
			continue
		}
		if !e.lsqAddrKnown {
			return loadBlocked
		}
		if overlap(e.memAddr, e.memWidth, l.memAddr, l.memWidth) {
			// Youngest earlier matching store (we scan youngest-first).
			dataPhys := e.srcPhys[1]
			if e.numSrcs > 1 && !rf[e.Cluster].Ready(dataPhys) {
				return loadBlocked
			}
			return loadForward
		}
	}
	return loadAccess
}

// ReadyLoads appends loads eligible to attempt a cache access or forward
// this cycle, oldest first: EA computed, not yet accessed.
//
//dca:hotpath
func (q *lsq) ReadyLoads(buf []*DynInst) []*DynInst {
	for i := 0; i < q.n; i++ {
		d := q.at(i)
		if d.isLoad && d.lsqAddrKnown && !d.lsqAccessed && d.state == stateMemWait {
			buf = append(buf, d)
		}
	}
	return buf
}

// Remove deletes a committed memory instruction. Commit is in order, so
// in production the removed instruction is always the oldest entry (the
// O(1) head path); the general shift path keeps the structure correct for
// any caller and is unit-tested directly (TestLSQRemoveMidQueue).
//
//dca:hotpath
func (q *lsq) Remove(d *DynInst) {
	if q.n == 0 {
		return
	}
	if q.ring[q.head] == d {
		q.ring[q.head] = nil
		q.head = (q.head + 1) & (len(q.ring) - 1)
		q.n--
		return
	}
	mask := len(q.ring) - 1
	for i := 1; i < q.n; i++ {
		if q.at(i) != d {
			continue
		}
		for j := i; j < q.n-1; j++ {
			q.ring[(q.head+j)&mask] = q.ring[(q.head+j+1)&mask]
		}
		q.ring[(q.head+q.n-1)&mask] = nil
		q.n--
		return
	}
}

// Len returns the occupancy.
//
//dca:hotpath
func (q *lsq) Len() int { return q.n }
