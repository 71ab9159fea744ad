// ag-lint-fixture: expect(layering)
// gf is the bottom layer: it includes nothing above itself.
#pragma once
#include "linalg/rref_view.hpp"
