// Fixture for the errdrop analyzer: module-internal errors carry contract
// violations and must not be discarded — as a bare statement, via defer or
// go, or through the blank identifier. Handling, returning, and stdlib
// calls are clean.
package errdrop

import (
	"fmt"

	"mklite/internal/fault"
	"mklite/internal/par"
	"mklite/internal/trace"
)

func badStatement(data []byte) {
	trace.Validate(data) // want `trace\.Validate returns an error and the call discards it`
}

func badBlank(spec string) *fault.Plan {
	p, _ := fault.ParsePlan(spec) // want `fault\.ParsePlan returns an error and the blank identifier discards it`
	return p
}

func badMapErr(n int) []int {
	out, _ := par.MapWidthErr(0, n, func(i int) (int, error) { return i, nil }) // want `par\.MapWidthErr returns an error and the blank identifier discards it`
	return out
}

func badDefer(p *fault.Plan) {
	defer p.Validate() // want `fault\.Plan\.Validate returns an error and defer discards it`
}

func badGo(data []byte) {
	go trace.Validate(data) // want `trace\.Validate returns an error and the goroutine discards it`
}

// --- clean ---

func goodReturned(spec string) (*fault.Plan, error) {
	return fault.ParsePlan(spec)
}

func goodChecked(data []byte) bool {
	if err := trace.Validate(data); err != nil {
		return false
	}
	return true
}

func goodStdlib() {
	// Only module-internal APIs are guarded; stdlib conventions (Println's
	// error, say) stay the caller's business.
	fmt.Println("ok")
}
