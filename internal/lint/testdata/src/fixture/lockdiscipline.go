package fixture

import "sync"

type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func (c *counter) leakNoUnlock() {
	c.mu.Lock() // want lockdiscipline
	c.n++
}

func (c *counter) leakOnReturn(fail bool) int {
	c.mu.Lock() // want lockdiscipline
	if fail {
		return -1
	}
	n := c.n
	c.mu.Unlock()
	return n
}

func (c *counter) readLeak() int {
	c.rw.RLock() // want lockdiscipline
	return c.n
}

func (c *counter) deferredOK() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) straightLineOK() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func mutexByValue(mu sync.Mutex) {} // go vet's copylocks reports this, not iawjlint

func wgByValue(wg sync.WaitGroup) {} // likewise

func pointerOK(mu *sync.Mutex, wg *sync.WaitGroup) {
	_ = mu
	_ = wg
}
