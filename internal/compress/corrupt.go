package compress

import (
	"errors"
	"fmt"
)

// ErrCorrupt is the sentinel wrapped by every CorruptError; match it with
// errors.Is when the offending rank's identity does not matter.
var ErrCorrupt = errors.New("compress: payload corrupt")

// CorruptError reports an encoded payload that failed structural validation
// on decode: wrong length, an out-of-range code or index, or a non-finite
// header word. It names the rank whose payload failed (in all-gather order,
// blob index == sending rank), which lets the elastic trainer expel the
// poisoned member instead of scatter-adding garbage into every survivor's
// gradient. Extract with errors.As; Unwrap yields ErrCorrupt.
type CorruptError struct {
	Rank   int
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("compress: payload from rank %d corrupt: %s", e.Rank, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// corruptf builds a *CorruptError blaming rank r.
func corruptf(r int, format string, args ...any) error {
	return &CorruptError{Rank: r, Reason: fmt.Sprintf(format, args...)}
}

// checkHeaderFinite rejects a non-finite scale/norm header word. One NaN
// scale would otherwise poison the whole decoded buffer (every method folds
// its header multiplicatively into every element), so catching it here is
// what turns "all survivors see NaN aggregates" into "the poisoned rank is
// named and expelled". v != v catches NaN; the subtraction catches ±Inf.
func checkHeaderFinite(v float64, r int, what string) error {
	if v-v != 0 {
		return corruptf(r, "%s header %v is not finite", what, v)
	}
	return nil
}

// finitePair rejects a non-finite sparse value. Shared by the fused
// scatter-add decode paths: a rank that ships NaN/Inf values is poison
// regardless of whether the bits flipped on the wire or came out of its
// own arithmetic, and either way the decode names it.
func finitePair(v float64) bool { return v-v == 0 }
