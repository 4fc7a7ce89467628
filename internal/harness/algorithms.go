package harness

import (
	// The paper's built-in algorithms self-register into the open alg
	// registry from their own packages; the blank imports guarantee the
	// full set is present for every harness consumer even if no
	// experiment file links a package in directly.
	_ "netoblivious/internal/broadcast"
	_ "netoblivious/internal/colsort"
	_ "netoblivious/internal/fft"
	_ "netoblivious/internal/matmul"
	_ "netoblivious/internal/prefix"
	_ "netoblivious/internal/stencil"
)
