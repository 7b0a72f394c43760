//go:build go1.23

package sim

import "iter"

// start binds fn to p as a runtime coroutine. The body does not run
// until the kernel's first resumeProc; stop unwinds it if it is still
// parked when the kernel stops.
func (p *Proc) start(fn func(p *Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) { p.top(fn, yield) })
}
