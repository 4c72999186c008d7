package collective

// runAsMessages makes every schedule run as messages (the first
// executor) until the returned restore is called, whatever the world's
// fault plan allows.
func runAsMessages() (restore func()) {
	forceMessages = true
	return func() { forceMessages = false }
}
