package procexec

import (
	"io"
	"time"
)

// LiveWorkers counts the worker process groups no supervisor has reaped.
func LiveWorkers() int {
	n := 0
	liveGroups.Range(func(any, any) bool {
		n++
		return true
	})
	return n
}

// SetHeartbeatMisses shrinks c's heartbeat-miss window to n intervals.
func SetHeartbeatMisses(c *Config, n int) { c.misses = n }

// ServeEvery is Serve with a heartbeat interval of hb.
func ServeEvery(in io.Reader, out io.Writer, h Handler, opts ServeOptions, hb time.Duration) error {
	return serve(in, out, h, opts, hb)
}
