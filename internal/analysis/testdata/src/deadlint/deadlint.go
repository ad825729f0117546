// Package deadlint is a seeded-violation fixture for the dead-code
// analyzer: package-level declarations nothing else in the package
// references must be flagged, while referenced ones, interface and
// standard-library method names, iota groups with a used member and
// justified allows stay silent.
package deadlint

import "sort"

func Orphan() {} // want "func Orphan"

func orphan() {} // want "func orphan"

// Entry is dead, but the helper it calls is referenced by it: the
// analyzer judges one declaration at a time.
func Entry() int { return helper() } // want "func Entry"

func helper() int { return limit }

// A recursive call does not keep a function alive.
func countdown(n int) int { // want "func countdown"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// box is named only in its own methods' receivers.
type box struct{ xs []int } // want "type box"

func (b *box) Len() int           { return len(b.xs) }         // sort.Interface
func (b *box) Less(i, j int) bool { return b.xs[i] < b.xs[j] } // sort.Interface
func (b *box) Swap(i, j int)      { b.xs[i], b.xs[j] = b.xs[j], b.xs[i] }
func (b *box) String() string     { return "box" } // called by fmt
func (b *box) Grow()              {}               // want "method Grow"
func (b *box) Visit()             {}               // named by the interface below

type visitor interface{ Visit() }

var _ visitor = (*sorter)(nil)

type sorter struct{}

func (*sorter) Visit() {}

var Sorted = sort.IsSorted(sort.IntSlice(nil)) // want "var Sorted"

var unusedVar = 1 // want "var unusedVar"

const unusedConst = 2 // want "const unusedConst"

// The members of a const group keep each other alive.
const (
	limit = base * 2
	base  = 21
)

// An iota group is judged as one: removing a member would renumber the
// rest.
type mode int

const (
	modeA mode = iota
	modeB
	modeC
)

var current = modeB

func init() { _ = current }

//gensched:allow deadlint fixture exercises the escape hatch
func Kept() {}

//gensched:allow deadlint
func Unjustified() {} // want "without a justification"
