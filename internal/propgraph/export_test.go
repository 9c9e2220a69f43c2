package propgraph

// SubscriptSegment renders an indexing step for inclusion in a path
// segment: literal string and number keys are kept verbatim (the paper's
// request.files['f']), everything else degrades to "[]" (the paper's
// _hash()[]). The analyzer builds its segments itself; only the tests
// call this.
func SubscriptSegment(base, key string, literal bool) string {
	if literal {
		return base + "[" + key + "]"
	}
	return base + "[]"
}
