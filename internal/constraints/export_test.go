package constraints

import "seldon/internal/lp"

// RaceEnabled is raceEnabled for the external test package.
const RaceEnabled = raceEnabled

// SavedBlocks returns a copy of each of the cache's blocks by file name,
// with its constraints in a slice of their own and without the span hash
// it was last checked against, which Save does not write.
func (c *FlowCache) SavedBlocks() map[string]flowBlock {
	out := make(map[string]flowBlock, len(c.blocks))
	for f, b := range c.blocks {
		out[f] = flowBlock{fp: b.fp, cons: b.Constraints(),
			countA: b.countA, countB: b.countB, countC: b.countC, skipped: b.skipped}
	}
	return out
}

// Constraints returns the block's constraints.
func (b *flowBlock) Constraints() []lp.Constraint {
	out := make([]lp.Constraint, b.n())
	b.put(out)
	return out
}
