package session

import (
	"strings"
	"sync"

	"treeaa/internal/cli"
)

// spaceCacheSize is how many compiled spaces parseSpec keeps. A service's
// sessions run on a handful of spaces; the ring is sized so that a stream of
// never-repeating specs beside them (a random tree per request) pushes a hot
// space out only once in a few hundred sessions.
const spaceCacheSize = 64

// spaceKey is what cli.ParseSpaceSpec is a pure function of — except for
// "@file" specs, which parseSpec keeps out of the cache.
type spaceKey struct {
	spec string
	seed int64
}

// spaceCache memoises cli.ParseSpaceSpec: building a spider:3:3 and
// compiling its tables had become a twentieth of a thirteen-round session,
// paid by every daemon for every session. A *cli.Space is immutable once
// built (its lazily compiled tables are safe under contention) and every
// party and phase of a run shares one already, so sessions and daemons of
// one process may share it too. Eviction is first in, first out over a
// fixed ring: no space is worth more bookkeeping than re-parsing it costs.
type spaceCache struct {
	mu   sync.Mutex
	byID map[spaceKey]*cli.Space
	ring [spaceCacheSize]spaceKey
	next int // ring slot the next insertion overwrites
}

// spaces is the process's cache. Package-level because Oracle, a function
// without a daemon, parses the same specs the daemons do; a memo of a pure
// function is state no caller can observe.
var spaces spaceCache

// fromFile reports whether a space spec names a file ("@f", "graph:@f"),
// whose contents may change between two sessions.
func fromFile(spec string) bool {
	return strings.HasPrefix(strings.TrimPrefix(spec, cli.GraphPrefix), "@")
}

// parse is cli.ParseSpaceSpec through the cache. Failures are not cached.
func (c *spaceCache) parse(spec string, seed int64) (*cli.Space, error) {
	if fromFile(spec) {
		return cli.ParseSpaceSpec(spec, seed)
	}
	key := spaceKey{spec, seed}
	c.mu.Lock()
	sp := c.byID[key]
	c.mu.Unlock()
	if sp != nil {
		return sp, nil
	}
	sp, err := cli.ParseSpaceSpec(spec, seed)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if won := c.byID[key]; won != nil {
		return won, nil // parsed concurrently; keep one
	}
	if c.byID == nil {
		c.byID = make(map[spaceKey]*cli.Space, spaceCacheSize)
	}
	if len(c.byID) == spaceCacheSize {
		delete(c.byID, c.ring[c.next])
	}
	c.byID[key], c.ring[c.next] = sp, key
	c.next = (c.next + 1) % spaceCacheSize
	return sp, nil
}
