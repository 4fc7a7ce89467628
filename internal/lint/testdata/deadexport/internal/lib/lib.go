// Package lib holds the exports deadexport judges.
package lib

import "container/heap"

// Widget is re-exported by the facade's alias.
type Widget struct{}

// Spin is a method of an alias re-exported type: not reported.
func (Widget) Spin() {}

// queue satisfies heap.Interface; heap calls its methods, which Uses
// never shows.
type queue []int

// NewQueue is used by the facade.
func NewQueue() heap.Interface { return &queue{} }

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(int)) }

// Pop matches heap.Interface: not reported.
func (q *queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Peek matches no interface and nothing calls it.
func (q queue) Peek() int { return q[0] } // want "lib.\(queue\).Peek is used by no non-test file"

// Unused has no caller at all.
func Unused() {} // want "lib.Unused is used by no non-test file"

// Recursive calls only itself.
func Recursive(n int) int { // want "lib.Recursive is used by no non-test file"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// TestOnly is called from lib_test.go alone.
func TestOnly() {} // want "lib.TestOnly is used by no non-test file"

// Limit is read by no file.
const Limit = 4 // want "lib.Limit is used by no non-test file"

// NestedOnly is called from the nested module user/ alone: not reported.
func NestedOnly() {}

// Hooked is shared by the tests of several packages.
//
//nob:testhook the oracle of two packages' tests
func Hooked() {}

// Bare carries the directive without a reason.
//
//nob:testhook
func Bare() {} // want "//nob:testhook on Bare gives no reason"
