package spacegen

import (
	"math/rand"
	"testing"

	"starcdn/internal/cache"
)

// oracleList is the byteList implementation the top-down reinsert replaced,
// kept as a differential oracle: every operation splits at the root and
// merges back, and every push or insert allocates a fresh node with a fresh
// priority.
type oracleList struct {
	root *oracleNode
	rng  splitmix
}

type oracleNode struct {
	entry       Entry
	pri         uint64
	left, right *oracleNode
	bytes       int64
	count       int
}

func (n *oracleNode) update() {
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

func (l *oracleList) TotalBytes() int64 {
	if l.root == nil {
		return 0
	}
	return l.root.bytes
}

func (l *oracleList) Len() int {
	if l.root == nil {
		return 0
	}
	return l.root.count
}

func oracleSplit(t *oracleNode, limit int64) (a, b *oracleNode) {
	if t == nil {
		return nil, nil
	}
	leftBytes := int64(0)
	if t.left != nil {
		leftBytes = t.left.bytes
	}
	if leftBytes+t.entry.Size <= limit {
		aRight, bb := oracleSplit(t.right, limit-leftBytes-t.entry.Size)
		t.right = aRight
		t.update()
		return t, bb
	}
	aa, bLeft := oracleSplit(t.left, limit)
	t.left = bLeft
	t.update()
	return aa, t
}

func oracleMerge(a, b *oracleNode) *oracleNode {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.pri >= b.pri:
		a.right = oracleMerge(a.right, b)
		a.update()
		return a
	default:
		b.left = oracleMerge(a, b.left)
		b.update()
		return b
	}
}

func (l *oracleList) newNode(e Entry) *oracleNode {
	n := &oracleNode{entry: e, pri: l.rng.next()}
	n.update()
	return n
}

func (l *oracleList) PushBack(e Entry) { l.root = oracleMerge(l.root, l.newNode(e)) }

func (l *oracleList) PopFront() (Entry, bool) {
	if l.root == nil {
		return Entry{}, false
	}
	var popped Entry
	var pop func(t *oracleNode) *oracleNode
	pop = func(t *oracleNode) *oracleNode {
		if t.left == nil {
			popped = t.entry
			return t.right
		}
		t.left = pop(t.left)
		t.update()
		return t
	}
	l.root = pop(l.root)
	return popped, true
}

func (l *oracleList) InsertAtBytes(e Entry, d int64) {
	a, b := oracleSplit(l.root, d)
	l.root = oracleMerge(oracleMerge(a, l.newNode(e)), b)
}

func (l *oracleList) walk(f func(Entry)) {
	var rec func(t *oracleNode)
	rec = func(t *oracleNode) {
		if t == nil {
			return
		}
		rec(t.left)
		f(t.entry)
		rec(t.right)
	}
	rec(l.root)
}

// TestByteListMatchesOracle runs random PushBack / PopFront / InsertAtBytes
// sequences on both implementations, reinserting the popped node itself on
// the new one, and compares list order, TotalBytes and Len after every
// operation. Offsets hit 0, exact prefix sums (where a zero-size entry or a
// boundary tie decides the slot), random interior points, and past the end.
func TestByteListMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := newByteList(uint64(seed))
		o := &oracleList{rng: splitmix(uint64(seed) * 7)}
		var popped *blNode
		nextObj := cache.ObjectID(1)
		randEntry := func() Entry {
			nextObj++
			// Some zero sizes, so several entries share one byte offset.
			return Entry{Obj: nextObj, Size: int64(rng.Intn(4)) * int64(rng.Intn(200)), Pop: int64(rng.Intn(9))}
		}
		for op := 0; op < 1500; op++ {
			var want []Entry
			o.walk(func(e Entry) { want = append(want, e) })
			var d int64
			switch rng.Intn(5) {
			case 0:
				d = 0
			case 1: // an exact prefix sum
				k := rng.Intn(len(want) + 1)
				for _, e := range want[:k] {
					d += e.Size
				}
			case 2:
				d = o.TotalBytes() + 1 + rng.Int63n(1000)
			default:
				d = rng.Int63n(o.TotalBytes() + 1)
			}
			switch r := rng.Intn(10); {
			case r < 3:
				e := randEntry()
				l.PushBack(e)
				o.PushBack(e)
			case r < 6:
				got := l.PopFront()
				want, ok := o.PopFront()
				if (got != nil) != ok || (ok && got.entry != want) {
					t.Fatalf("seed %d op %d: pop = %+v, want %+v (ok=%v)", seed, op, got, want, ok)
				}
				if popped == nil {
					popped = got
				} else if got != nil {
					// Reinsert the earlier pop, as Algorithm 1 reinserts
					// the node it just popped, and keep this one.
					l.InsertAtBytes(popped, d)
					o.InsertAtBytes(popped.entry, d)
					popped = got
				}
			default:
				if popped != nil {
					l.InsertAtBytes(popped, d)
					o.InsertAtBytes(popped.entry, d)
					popped = nil
				} else {
					e := randEntry()
					l.InsertAtBytes(l.newNode(e), d)
					o.InsertAtBytes(e, d)
				}
			}
			if l.Len() != o.Len() || l.TotalBytes() != o.TotalBytes() {
				t.Fatalf("seed %d op %d: len/bytes %d/%d, want %d/%d",
					seed, op, l.Len(), l.TotalBytes(), o.Len(), o.TotalBytes())
			}
			var got []Entry
			l.walk(func(e Entry) { got = append(got, e) })
			want = want[:0]
			o.walk(func(e Entry) { want = append(want, e) })
			if len(got) != len(want) {
				t.Fatalf("seed %d op %d: walk has %d entries, want %d", seed, op, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d op %d: entry %d = %+v, want %+v", seed, op, i, got[i], want[i])
				}
			}
		}
	}
}
