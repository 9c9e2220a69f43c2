package propgraph

import "strings"

// RepContext describes where an event occurs, which determines the backoff
// chain of its representations (§3.2). For the paper's running example —
// a call self.receipt() inside method status of class
// ESCPOSDriver(base_driver.ThreadDriver) — the chain is:
//
//	ESCPOSDriver::status(param self).receipt()
//	base_driver.ThreadDriver::status(param self).receipt()
//	status(param self).receipt()
//	self.receipt()
type RepContext struct {
	Function   string   // enclosing function name, "" at module level
	Class      string   // enclosing class name, "" if none
	ClassBases []string // qualified base-class names, preferred first
}

// paramRoots returns the context-qualified roots for a path anchored at
// parameter param, ordered most to least specific. includeBare controls
// whether the bare variable name itself is a valid final fallback (it is
// for call/read chains, but not for the parameter event itself, whose bare
// name would carry no information).
func (c RepContext) paramRoots(param string, includeBare bool) []string {
	roots := make([]string, 0, len(c.ClassBases)+3)
	if c.Function != "" {
		fn := c.Function + "(param " + param + ")"
		if c.Class != "" {
			roots = append(roots, c.Class+"::"+fn)
			for _, base := range c.ClassBases {
				roots = append(roots, base+"::"+fn)
			}
		}
		roots = append(roots, fn)
	}
	if includeBare {
		roots = append(roots, param)
	}
	return roots
}

// ParamEventReps builds the representations of a formal-parameter event,
// e.g. ["media(param f)"] or ["MethodView::get(param filename)", ...].
func (c RepContext) ParamEventReps(param string) []string {
	return c.paramRoots(param, false)
}

// ParamRootedReps builds representations for a call or read chain whose
// root is parameter param, with rest holding the remaining path segments
// (e.g. ["receipt()"] for self.receipt()).
func (c RepContext) ParamRootedReps(param string, rest []string) []string {
	if len(rest) == 0 {
		return c.ParamEventReps(param)
	}
	tail := strings.Join(rest, ".")
	roots := c.paramRoots(param, true)
	reps := make([]string, 0, len(roots))
	for _, r := range roots {
		reps = append(reps, r+"."+tail)
	}
	return reps
}

// AppendSuffixReps appends to dst the dotted-suffix backoff chain for a
// path not rooted at a parameter, e.g. ["flask", "request", "form",
// "get()"] yields
//
//	flask.request.form.get()
//	request.form.get()
//	form.get()
//
// At least two segments are kept, so an overly general single-segment
// representation (such as a bare method name) never becomes a backoff
// target of a longer chain; a path that is itself a single segment yields
// that one representation. The chain costs one string: every shorter
// representation is a suffix of the first and is returned as a substring
// of it.
func AppendSuffixReps(dst, path []string) []string {
	if len(path) <= 1 {
		return append(dst, path...)
	}
	full := strings.Join(path, ".")
	off := 0
	for _, seg := range path[:len(path)-1] {
		dst = append(dst, full[off:])
		off += len(seg) + 1
	}
	return dst
}
