package trace

import "context"

// Spans travel explicitly in this codebase (core.Config.Span, the service's
// per-request state); no caller outside the tests carries one in a context.

// ctxKey carries the current span through a context.
type ctxKey struct{}

// NewContext returns ctx with s as the current span.
func NewContext(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the current span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
