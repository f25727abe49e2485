package core

import "repro/internal/config"

// issueQueue is one cluster's instruction window. In out-of-order mode it
// is a single associative window from which any ready instruction may
// issue, oldest first. In FIFO mode (the Palacharla/Jouppi/Smith
// organization of Figure 16) it is a set of FIFOs and only the head of each
// FIFO may issue.
type issueQueue struct {
	mode     config.IQMode
	capacity int

	// qhead/qtail anchor the live window as an intrusive doubly-linked
	// list (DynInst.prevQ/nextQ) in dispatch (age) order for OoO
	// selection; count tracks occupancy. A list rather than a slice so
	// Remove unlinks in O(1) — removals are not always near the front, and
	// the slice shift was a measurable fraction of the cycle loop.
	qhead, qtail *DynInst
	count        int

	// fifos holds the FIFO-mode organization; the window list above is
	// still maintained for occupancy accounting and ready counting.
	fifos     [][]*DynInst
	fifoDepth int

	// readyCount caches the number of waiting entries whose sources are
	// all available (the paper's per-cluster workload measure, read every
	// cycle by sample). It is maintained incrementally at the only three
	// points readiness can change — Add, Remove and wakeReg — so ReadyCount
	// is O(1) instead of a queue scan.
	readyCount int

	// waiters holds, per physical register of this cluster's file, the
	// intrusive list (DynInst.nextWaiter) of waiting entries with that
	// register as a pending source. wakeReg walks exactly the consumers of
	// the completing register instead of re-scanning the queue.
	waiters []*DynInst

	// copies lists the in-queue copy instructions (FIFO mode keeps them in
	// the bus-interface buffer outside the FIFOs; this avoids scanning
	// every entry for them during issue selection).
	copies []*DynInst
}

func newIssueQueue(cl config.Cluster, mode config.IQMode) *issueQueue {
	q := &issueQueue{mode: mode, capacity: cl.IQSize}
	if mode == config.IQFIFO {
		q.fifos = make([][]*DynInst, cl.FIFOs)
		q.fifoDepth = cl.FIFODepth
		q.capacity = cl.FIFOs * cl.FIFODepth
		// One backing array per FIFO, sized to its depth: Add never grows
		// a FIFO past its preallocated capacity.
		for f := range q.fifos {
			q.fifos[f] = make([]*DynInst, 0, cl.FIFODepth)
		}
	}
	q.copies = make([]*DynInst, 0, q.capacity)
	q.waiters = make([]*DynInst, cl.PhysRegs)
	return q
}

// Len returns the current occupancy.
//
//dca:hotpath
func (q *issueQueue) Len() int { return q.count }

// Free returns the remaining capacity.
//
//dca:hotpath
func (q *issueQueue) Free() int { return q.capacity - q.count }

// Add inserts a dispatched instruction. In FIFO mode the caller must have
// chosen d.fifo (Machine.fifoSlot) beforehand; copies bypass the FIFOs
// (they wait only for their source value and a bus, in the copy buffer at
// the cluster's bus interface).
//
//dca:hotpath
func (q *issueQueue) Add(d *DynInst) {
	d.prevQ, d.nextQ = q.qtail, nil
	if q.qtail != nil {
		q.qtail.nextQ = d
	} else {
		q.qhead = d
	}
	q.qtail = d
	q.count++
	d.issueReady = d.IssueReady()
	if d.state == stateWaiting && d.issueReady {
		q.readyCount++
	}
	// Chain the entry under each distinct pending source register so the
	// completion of that register wakes it without a queue scan.
	w := 0
	for i := 0; i < d.numSrcs; i++ {
		p := d.srcPhys[i]
		if p == noPhys || d.srcReady[i] {
			continue
		}
		if w == 1 && d.waiterReg[0] == p {
			continue // same register read twice: one chain suffices
		}
		d.waiterReg[w] = p
		d.nextWaiter[w] = q.waiters[p]
		q.waiters[p] = d
		w++
	}
	if d.IsCopy {
		q.copies = append(q.copies, d)
	}
	if q.mode == config.IQFIFO && !d.IsCopy {
		q.fifos[d.fifo] = append(q.fifos[d.fifo], d)
	}
}

// ReadyCount returns the number of waiting instructions whose sources are
// all available — the paper's per-cluster workload measure.
//
//dca:hotpath
func (q *issueQueue) ReadyCount() int { return q.readyCount }

// Issuable appends to buf the instructions eligible for issue selection
// this cycle, oldest first: ready waiting instructions, restricted to FIFO
// heads in FIFO mode. FIFO-mode issue selects from this list; out-of-order
// issue walks the same candidates in place through readyCursor.
//
//dca:hotpath
func (q *issueQueue) Issuable(buf []*DynInst) []*DynInst {
	if q.mode == config.IQFIFO {
		for f := range q.fifos {
			if len(q.fifos[f]) == 0 {
				continue
			}
			head := q.fifos[f][0]
			if head.state == stateWaiting && head.issueReady {
				buf = append(buf, head)
			}
		}
		// Copies sit in the bus-interface buffer, not the FIFOs.
		for _, d := range q.copies {
			if d.state == stateWaiting && d.issueReady {
				buf = append(buf, d)
			}
		}
		// Keep age order for fair selection across FIFOs.
		sortBySeq(buf)
		return buf
	}
	it := q.readyCursor()
	for d := it.Next(); d != nil; d = it.Next() {
		buf = append(buf, d)
	}
	return buf
}

// readyCursor walks an out-of-order window's issue candidates — waiting
// entries whose sources are ready — oldest first, in place. It reads each
// candidate's successor before handing the candidate out, so the caller
// may Remove it before asking for the next. readyCount counts exactly the
// candidates, so the walk stops at the last one instead of running to the
// window's tail — ready instructions cluster near the front (oldest) of
// the window, making the early exit the common case.
type readyCursor struct {
	next *DynInst
	left int
}

// readyCursor starts a walk at the oldest entry of the window.
//
//dca:hotpath
func (q *issueQueue) readyCursor() readyCursor {
	return readyCursor{next: q.qhead, left: q.readyCount}
}

// Next returns the next candidate, or nil after the last.
//
//dca:hotpath
func (it *readyCursor) Next() *DynInst {
	if it.left == 0 {
		return nil
	}
	d := it.next
	for d != nil && (d.state != stateWaiting || !d.issueReady) {
		d = d.nextQ
	}
	if d == nil {
		it.left = 0
		return nil
	}
	it.next = d.nextQ
	it.left--
	return d
}

// Remove deletes an issued instruction from the queue structures.
//
//dca:hotpath
func (q *issueQueue) Remove(d *DynInst) {
	if d.prevQ != nil {
		d.prevQ.nextQ = d.nextQ
	} else {
		q.qhead = d.nextQ
	}
	if d.nextQ != nil {
		d.nextQ.prevQ = d.prevQ
	} else {
		q.qtail = d.prevQ
	}
	d.prevQ, d.nextQ = nil, nil
	q.count--
	if d.state == stateWaiting && d.issueReady {
		q.readyCount--
	}
	if d.IsCopy {
		for i, e := range q.copies {
			if e == d {
				q.copies = append(q.copies[:i], q.copies[i+1:]...)
				break
			}
		}
	}
	if q.mode == config.IQFIFO && !d.IsCopy {
		fifo := q.fifos[d.fifo]
		for i, e := range fifo {
			if e == d {
				q.fifos[d.fifo] = append(fifo[:i], fifo[i+1:]...)
				break
			}
		}
	}
}

// wakeReg marks the completing register ready in every waiting consumer,
// by walking its waiter list; called after a completion sets the register
// ready in the file. Entries that left the queue before their pending
// source completed (stores issue on the address operand alone) are still
// chained; the stateWaiting guard skips them — matching the old full-scan
// wakeup, which only updated in-queue entries — and commit cannot recycle
// such an instruction before this walk runs, because a store's commit
// waits for the same register readiness that triggers the walk.
//
//dca:hotpath
func (q *issueQueue) wakeReg(p physReg) {
	d := q.waiters[p]
	q.waiters[p] = nil
	for d != nil {
		var next *DynInst
		if d.waiterReg[0] == p {
			next = d.nextWaiter[0]
			d.nextWaiter[0] = nil
			d.waiterReg[0] = noPhys
		} else {
			next = d.nextWaiter[1]
			d.nextWaiter[1] = nil
			d.waiterReg[1] = noPhys
		}
		if d.state == stateWaiting {
			for i := 0; i < d.numSrcs; i++ {
				if d.srcPhys[i] == p {
					d.srcReady[i] = true
				}
			}
			if !d.issueReady && d.IssueReady() {
				d.issueReady = true
				q.readyCount++
			}
		}
		d = next
	}
}

// nextWaiterOf follows d's waiter-list link for register p (the slot
// waiterReg names) without unchaining it; wakeReg's walk unchains.
//
//dca:hotpath
func (d *DynInst) nextWaiterOf(p physReg) *DynInst {
	if d.waiterReg[0] == p {
		return d.nextWaiter[0]
	}
	return d.nextWaiter[1]
}

//dca:hotpath
func sortBySeq(ds []*DynInst) {
	// Insertion sort: the slice is tiny (≤ FIFO count).
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].Seq < ds[j-1].Seq; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}
