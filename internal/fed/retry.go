// Client-side retry policy for the degraded federation: which errors
// are worth resending. How long to wait between attempts is the
// caller's business; fed sits inside the determinism boundary and owns
// no clock.

package fed

import "errors"

// Retryable reports whether an error from a federation mutation — local
// (ShardDownError, ErrDraining) or remote (a WireError with the
// retryable flag) — refused the request before applying it, so the same
// request may be resent. Everything else is fatal:
// either the request is wrong, or it was applied without reaching the
// journal (ShardBrokenError) and resending would double-apply.
func Retryable(err error) bool {
	var down *ShardDownError
	if errors.As(err, &down) {
		return true
	}
	if errors.Is(err, ErrDraining) {
		return true
	}
	var we *WireError
	if errors.As(err, &we) {
		return we.Retryable
	}
	return false
}
