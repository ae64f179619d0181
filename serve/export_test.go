package serve

import "hpm/store"

// maxHorizon is the store's bound on how far past an object's current time a
// query time may lie, under the name the HTTP tests use.
const maxHorizon = store.MaxHorizon
