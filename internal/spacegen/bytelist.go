package spacegen

import (
	"math"

	"starcdn/internal/cache"
)

// Entry is one object inside an Algorithm-1 generation cache.
type Entry struct {
	Obj  cache.ObjectID
	Size int64
	Pop  int64 // popularity: requests owed in all at this location (blNode.sent counts those emitted)
}

// byteList is an ordered list of entries supporting O(log n) insertion at a
// byte offset and O(log n) pop from the front, implemented as a treap with
// subtree byte sums. It realises the "cache C_i" of Algorithm 1: the object
// at the top is the next to be requested, and after a request the object is
// reinserted at its sampled stack distance d, i.e. after roughly d bytes of
// other objects.
//
// The list order is a function of the sequence of pops and inserts alone:
// every operation places its entry by list position (a byte offset), never
// by priority. Priorities only shape the tree, so the order does not depend
// on them, nor on whether a reinserted node keeps its old priority.
type byteList struct {
	root *blNode
	rng  splitmix
}

type blNode struct {
	entry       Entry
	pri         uint64
	left, right *blNode
	bytes       int64 // subtree byte sum
	count       int   // subtree node count
	// sent counts the requests Algorithm 1 has emitted for this entry; the
	// generator retires the entry when it reaches entry.Pop.
	sent int64
}

// splitmix is a tiny deterministic PRNG for treap priorities.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func newByteList(seed uint64) *byteList { return &byteList{rng: splitmix(seed)} }

// newNode returns a detached node holding e.
func (l *byteList) newNode(e Entry) *blNode {
	return &blNode{entry: e, pri: l.rng.next()}
}

func (n *blNode) update() {
	n.bytes = n.entry.Size
	n.count = 1
	if n.left != nil {
		n.bytes += n.left.bytes
		n.count += n.left.count
	}
	if n.right != nil {
		n.bytes += n.right.bytes
		n.count += n.right.count
	}
}

// TotalBytes returns the sum of entry sizes.
func (l *byteList) TotalBytes() int64 {
	if l.root == nil {
		return 0
	}
	return l.root.bytes
}

// Len returns the number of entries.
func (l *byteList) Len() int {
	if l.root == nil {
		return 0
	}
	return l.root.count
}

// splitBytes splits t into (a, b) where a holds the maximal prefix whose
// total byte size is <= limit.
func splitBytes(t *blNode, limit int64) (a, b *blNode) {
	if t == nil {
		return nil, nil
	}
	leftBytes := int64(0)
	if t.left != nil {
		leftBytes = t.left.bytes
	}
	if leftBytes+t.entry.Size <= limit {
		// t and its whole left subtree go to a.
		a = t
		aRight, bb := splitBytes(t.right, limit-leftBytes-t.entry.Size)
		t.right = aRight
		t.update()
		return a, bb
	}
	// t goes to b.
	aa, bLeft := splitBytes(t.left, limit)
	t.left = bLeft
	t.update()
	return aa, t
}

// PushBack appends an entry at the end of the list.
func (l *byteList) PushBack(e Entry) { l.InsertAtBytes(l.newNode(e), math.MaxInt64) }

// PushFront prepends an entry at the head of the list.
func (l *byteList) PushFront(e Entry) { l.InsertAtBytes(l.newNode(e), -1) }

// PopFront unlinks and returns the first node, or nil if the list is empty.
// The node keeps its entry, priority and sent count, so it can go back in
// with InsertAtBytes, which also resets its stale child links.
func (l *byteList) PopFront() *blNode {
	n := l.root
	if n == nil {
		return nil
	}
	for n.left != nil {
		n = n.left
	}
	link := &l.root
	for t := l.root; t != n; t = t.left {
		t.bytes -= n.entry.Size
		t.count--
		link = &t.left
	}
	*link = n.right
	return n
}

// PeekFront returns the first entry without removing it.
func (l *byteList) PeekFront() (Entry, bool) {
	t := l.root
	if t == nil {
		return Entry{}, false
	}
	for t.left != nil {
		t = t.left
	}
	return t.entry, true
}

// InsertAtBytes inserts the detached node n so that the total size of
// entries preceding it is at most d bytes (Algorithm 1, line 28). d past the
// end appends; a negative d prepends.
//
// It is one top-down descent: while the current subtree's root outranks n,
// n's bytes and count are added to it and the descent moves to the side
// holding offset d. Where n outranks the root (or the path ends), only that
// subtree is split at the remaining offset, and its halves become n's
// children.
func (l *byteList) InsertAtBytes(n *blNode, d int64) {
	link := &l.root
	for t := l.root; t != nil && t.pri >= n.pri; t = *link {
		t.bytes += n.entry.Size
		t.count++
		leftBytes := int64(0)
		if t.left != nil {
			leftBytes = t.left.bytes
		}
		if leftBytes+t.entry.Size <= d {
			d -= leftBytes + t.entry.Size
			link = &t.right
		} else {
			link = &t.left
		}
	}
	n.left, n.right = splitBytes(*link, d)
	n.update()
	*link = n
}

// walk applies f to every entry in list order (for tests and accounting).
func (l *byteList) walk(f func(Entry)) {
	var rec func(t *blNode)
	rec = func(t *blNode) {
		if t == nil {
			return
		}
		rec(t.left)
		f(t.entry)
		rec(t.right)
	}
	rec(l.root)
}
