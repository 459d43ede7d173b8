package hotmod

// fifo is generic: a call through an instantiation resolves to an
// instantiated method, which must still be followed to its declaration.
type fifo[W any] struct{ items []W }

func (q *fifo[W]) push(w W) {
	q.items = append(q.items, w)
	_ = make([]W, 0, 1) // want `make on the hot path allocates`
}

//loadctl:hotpath
func ServeQueued(q *fifo[uint64], id uint64) {
	q.push(id)
}
