package dist

// Test files are exempt: watchdog goroutines in tests need no stop.

func watchdog(w *worker) {
	finished := make(chan struct{})
	go func() {
		w.out <- 9
		close(finished)
	}()
	<-finished
}
