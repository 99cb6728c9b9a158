package procexec

// LiveWorkers counts the worker process groups no supervisor has reaped.
func LiveWorkers() int {
	n := 0
	liveGroups.Range(func(any, any) bool {
		n++
		return true
	})
	return n
}
