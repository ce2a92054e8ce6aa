"""R001 fixture: every ambient-nondeterminism source the rule bans."""

import os
import random
import time
import uuid
from datetime import datetime

import numpy as np


def ambient_draws():
    a = random.random()                       # R001: global random state
    b = np.random.rand(3)                     # R001: numpy global singleton
    np.random.seed(0)                         # R001: reseeding the singleton
    c = time.time()                           # R001: wall-clock read
    d = datetime.now()                        # R001: wall-clock read
    e = uuid.uuid4()                          # R001: nondeterministic id
    f = os.urandom(8)                         # R001: OS entropy
    return a, b, c, d, e, f


def suppressed_draw():
    return random.random()  # reprolint: disable=R001


def blessed_constructions(seed):
    rng = np.random.default_rng(seed)
    seq = np.random.SeedSequence(seed)
    instance = random.Random(seed)
    return rng, seq, instance
