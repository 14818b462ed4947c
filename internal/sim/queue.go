package sim

// eventQueue is the engine's pending-event set: a binary min-heap ordered
// by (at, seq), strictly by timestamp and FIFO by insertion seq within a
// timestamp. The order is total, so any correct priority queue pops the
// same sequence; a heap suits the few dozen events a simulation here keeps
// pending.
type eventQueue []*event

func (q eventQueue) less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}

// push inserts ev.
func (q *eventQueue) push(ev *event) {
	h := append(*q, ev)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

// peek returns the earliest event without removing it, or nil when empty.
func (q eventQueue) peek() *event {
	if len(q) == 0 {
		return nil
	}
	return q[0]
}

// pop removes and returns the earliest event, or nil when empty.
func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	if n < 0 {
		return nil
	}
	ev := h[0]
	h[0] = h[n]
	h[n] = nil // the backing array keeps no popped event
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h.less(r, m) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return ev
}

// clear discards every queued event, nil-ing the slots so the backing array
// retains no event (and closure).
func (q *eventQueue) clear() {
	clear(*q)
	*q = (*q)[:0]
}
