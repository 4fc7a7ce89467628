// Command user is a nested module, as bench/ is in this repository: its
// uses count.
package main

import "deadfix/internal/lib"

func main() { lib.NestedOnly() }
