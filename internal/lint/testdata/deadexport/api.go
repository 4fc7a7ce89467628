// Package deadfix exercises the deadexport analyzer: it is the facade
// of the fixture module, outside internal/, so its own exports are not
// checked; it uses some of internal/lib and re-exports one type.
package deadfix

import "deadfix/internal/lib"

// Widget is re-exported by alias: its methods are public API.
type Widget = lib.Widget

// Queue hands out lib's heap-backed queue.
func Queue() any { return lib.NewQueue() }
